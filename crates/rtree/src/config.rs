/// R-tree shape parameters. Nodes split by Guttman's quadratic split; the
/// protocol's granules are leaf BRs whichever split built them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RTreeConfig {
    /// Maximum entries per node (the paper's *fanout*; Table 2 uses 12, 24,
    /// 50 and 100).
    pub max_entries: usize,
    /// Minimum entries per node before it is condensed away. Guttman
    /// requires `min <= max / 2`; we default to 40 % of `max`.
    pub min_entries: usize,
}

impl RTreeConfig {
    /// Configuration with the given fanout and 40 % minimum fill.
    pub fn with_fanout(max_entries: usize) -> Self {
        assert!(max_entries >= 3, "fanout must be at least 3");
        Self {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(1),
        }
    }

    /// Overrides the minimum fill.
    ///
    /// # Panics
    /// Panics unless `1 <= min <= max/2` (Guttman's constraint, needed so a
    /// split can always produce two legal nodes).
    pub fn with_min_entries(mut self, min: usize) -> Self {
        assert!(min >= 1 && min <= self.max_entries / 2);
        self.min_entries = min;
        self
    }
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self::with_fanout(50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fanout_is_paperlike() {
        let c = RTreeConfig::default();
        assert_eq!(c.max_entries, 50);
        assert_eq!(c.min_entries, 20);
    }

    #[test]
    fn with_fanout_keeps_min_legal() {
        for fanout in [3, 4, 12, 24, 50, 100] {
            let c = RTreeConfig::with_fanout(fanout);
            assert!(c.min_entries >= 1);
            assert!(c.min_entries <= c.max_entries / 2, "fanout {fanout}");
        }
    }

    #[test]
    #[should_panic]
    fn tiny_fanout_rejected() {
        RTreeConfig::with_fanout(2);
    }

    #[test]
    #[should_panic]
    fn oversized_min_rejected() {
        RTreeConfig::with_fanout(10).with_min_entries(6);
    }
}
