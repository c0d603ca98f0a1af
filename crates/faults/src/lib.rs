//! Deterministic fault injection for the granular-locking stack.
//!
//! A **failpoint** is a named hook compiled into a hot path:
//!
//! ```ignore
//! dgl_faults::failpoint!("lockmgr/acquire");                  // delay or panic
//! dgl_faults::failpoint!("dgl/plan" => TxnError::Injected);   // or error-return
//! ```
//!
//! With the `enabled` feature **off** (the default, and what release
//! builds use) both macros expand to nothing — zero instructions, zero
//! branches. With it **on**, each hook consults a global registry of
//! armed sites. Arming is done by tests/chaos harnesses:
//!
//! ```ignore
//! let _g = dgl_faults::register("dgl/apply", FaultSpec::panic().one_in(200, seed));
//! ```
//!
//! A `FaultSpec` describes *what* to inject (`FaultKind`: error
//! return, artificial delay, or panic) and *when*: deterministically
//! (`nth`/`every`) or probabilistically from a seeded xorshift RNG
//! (`one_in`), always bounded by a `max_fires` budget so schedules
//! converge. The returned `FaultGuard` disarms the site on drop (RAII),
//! so a panicking test cannot leave faults armed for the next one.
//!
//! Even when the feature is enabled, an empty registry costs one relaxed
//! atomic load per hook — cheap enough to leave in every test build.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "enabled")]
mod imp {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Duration;

    /// What an armed failpoint injects when its schedule fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// Make the hook report "injected error" — the enclosing code
        /// returns its error-form expression (`failpoint!(name => err)`).
        Error,
        /// Sleep for the given duration inside the hook (simulates a slow
        /// lock handoff, slow I/O, a descheduled thread).
        Delay(Duration),
        /// Panic inside the hook (exercises the unwind/rollback paths).
        Panic,
    }

    /// When and what a failpoint injects. Build with the constructors,
    /// then refine with [`FaultSpec::nth`]/[`FaultSpec::every`]/
    /// [`FaultSpec::one_in`]/[`FaultSpec::max_fires`].
    #[derive(Debug, Clone, Copy)]
    pub struct FaultSpec {
        kind: FaultKind,
        /// Hits to skip before the schedule starts.
        skip: u64,
        /// Fire every nth eligible hit (deterministic mode); 0 selects
        /// probabilistic mode driven by `ppm`.
        every: u64,
        /// Fire probability in parts-per-million (probabilistic mode).
        ppm: u32,
        /// Hard budget: total fires never exceed this.
        max_fires: u64,
        /// Seed for the probabilistic schedule.
        seed: u64,
    }

    impl FaultSpec {
        /// A spec that fires on every hit (refine with the builders).
        pub fn new(kind: FaultKind) -> Self {
            Self {
                kind,
                skip: 0,
                every: 1,
                ppm: 0,
                max_fires: u64::MAX,
                seed: 0,
            }
        }

        /// Error-return on every hit.
        pub fn error() -> Self {
            Self::new(FaultKind::Error)
        }

        /// Panic on every hit.
        pub fn panic() -> Self {
            Self::new(FaultKind::Panic)
        }

        /// Sleep `d` on every hit.
        pub fn delay(d: Duration) -> Self {
            Self::new(FaultKind::Delay(d))
        }

        /// Fire exactly once, on the `n`th hit (1-based).
        pub fn nth(mut self, n: u64) -> Self {
            self.skip = n.saturating_sub(1);
            self.every = u64::MAX;
            self.max_fires = 1;
            self
        }

        /// Fire on every `n`th hit (deterministic).
        pub fn every(mut self, n: u64) -> Self {
            self.every = n.max(1);
            self.ppm = 0;
            self
        }

        /// Fire each hit with probability `1/n`, from a seeded RNG.
        pub fn one_in(mut self, n: u32, seed: u64) -> Self {
            self.every = 0;
            self.ppm = 1_000_000 / n.max(1);
            self.seed = seed;
            self
        }

        /// Cap the total number of fires (schedules must converge).
        pub fn max_fires(mut self, n: u64) -> Self {
            self.max_fires = n;
            self
        }
    }

    struct SiteState {
        spec: FaultSpec,
        hits: u64,
        fires: u64,
        rng: u64,
    }

    static ARMED: AtomicUsize = AtomicUsize::new(0);
    static TOTAL_FIRES: AtomicU64 = AtomicU64::new(0);
    static TOTAL_HITS: AtomicU64 = AtomicU64::new(0);

    fn registry() -> MutexGuard<'static, HashMap<String, SiteState>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
        REGISTRY
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            // A panic is never raised while the registry lock is held (the
            // injected panic happens after the guard drops), but stay
            // usable even if that invariant is ever broken.
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Disarms its site on drop. One live guard per site name: re-arming
    /// a name replaces the schedule, and whichever guard drops first
    /// disarms it.
    #[must_use = "dropping the guard disarms the failpoint"]
    pub struct FaultGuard {
        name: String,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            if registry().remove(&self.name).is_some() {
                ARMED.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Arms the failpoint `name` with `spec`. Disarmed when the returned
    /// guard drops.
    pub fn register(name: &str, spec: FaultSpec) -> FaultGuard {
        let state = SiteState {
            spec,
            hits: 0,
            fires: 0,
            rng: spec.seed | 1,
        };
        if registry().insert(name.to_string(), state).is_none() {
            ARMED.fetch_add(1, Ordering::Relaxed);
        }
        FaultGuard {
            name: name.to_string(),
        }
    }

    /// Total fires across all sites since process start (cumulative —
    /// diff around a run to count its injections).
    pub fn total_fires() -> u64 {
        TOTAL_FIRES.load(Ordering::Relaxed)
    }

    /// Total hook evaluations that found their site armed (cumulative).
    pub fn total_hits() -> u64 {
        TOTAL_HITS.load(Ordering::Relaxed)
    }

    /// `(hits, fires)` of an armed site, or `None` if not armed.
    pub fn site_stats(name: &str) -> Option<(u64, u64)> {
        registry().get(name).map(|s| (s.hits, s.fires))
    }

    /// Marker for an injected [`FaultKind::Error`].
    #[derive(Debug)]
    pub struct InjectedFault;

    fn xorshift(mut s: u64) -> u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }

    /// Hook implementation behind the macros. Delays and panics happen
    /// inside; an `Error` verdict is returned for the caller's error arm.
    #[doc(hidden)]
    pub fn eval(name: &str) -> Option<InjectedFault> {
        if ARMED.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let kind = {
            let mut sites = registry();
            let site = sites.get_mut(name)?;
            site.hits += 1;
            TOTAL_HITS.fetch_add(1, Ordering::Relaxed);
            if site.fires >= site.spec.max_fires {
                return None;
            }
            let due = if site.spec.every > 0 {
                let hit = site.hits;
                hit > site.spec.skip && (hit - site.spec.skip - 1) % site.spec.every == 0
            } else {
                site.rng = xorshift(site.rng);
                (site.rng >> 11) % 1_000_000 < u64::from(site.spec.ppm)
            };
            if !due {
                return None;
            }
            site.fires += 1;
            TOTAL_FIRES.fetch_add(1, Ordering::Relaxed);
            site.spec.kind
            // Registry guard drops here: never sleep or panic under it.
        };
        match kind {
            FaultKind::Error => Some(InjectedFault),
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                None
            }
            FaultKind::Panic => panic!("injected fault at failpoint '{name}'"),
        }
    }
}

#[cfg(feature = "enabled")]
pub use imp::{
    eval, register, site_stats, total_fires, total_hits, FaultGuard, FaultKind, FaultSpec,
    InjectedFault,
};

/// Failpoint hook. `failpoint!(name)` evaluates the site (delays and
/// panics happen inside); `failpoint!(name => expr)` additionally makes
/// the enclosing function `return Err(expr)` when an [`FaultKind::Error`]
/// schedule fires — `expr` may be a block that performs cleanup first.
/// Compiles to nothing unless the `enabled` feature is on.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        let _ = $crate::eval($name);
    };
    ($name:expr => $err:expr) => {
        if $crate::eval($name).is_some() {
            return Err($err);
        }
    };
}

/// Boolean failpoint hook: `fired!(name)` is `true` when an armed
/// [`FaultKind::Error`] schedule fires at this evaluation (delay/panic
/// kinds still take effect inside). Always `false` when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! fired {
    ($name:expr) => {
        $crate::eval($name).is_some()
    };
}

#[cfg(not(feature = "enabled"))]
#[macro_export]
#[doc(hidden)]
macro_rules! failpoint {
    ($name:expr) => {};
    ($name:expr => $err:expr) => {};
}

#[cfg(not(feature = "enabled"))]
#[macro_export]
#[doc(hidden)]
macro_rules! fired {
    ($name:expr) => {
        false
    };
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    // The registry is process-global; serialize tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn probe(name: &str) -> Result<(), &'static str> {
        crate::failpoint!(name => "injected");
        Ok(())
    }

    #[test]
    fn unarmed_sites_do_nothing() {
        let _l = LOCK.lock().unwrap();
        for _ in 0..100 {
            assert_eq!(probe("t/unarmed"), Ok(()));
        }
    }

    #[test]
    fn error_schedule_fires_every_nth() {
        let _l = LOCK.lock().unwrap();
        let _g = register("t/every3", FaultSpec::error().every(3).max_fires(2));
        let results: Vec<bool> = (0..9).map(|_| probe("t/every3").is_err()).collect();
        // Fires on hits 1 and 4; budget of 2 stops hit 7.
        assert_eq!(
            results,
            [true, false, false, true, false, false, false, false, false]
        );
        assert_eq!(site_stats("t/every3"), Some((9, 2)));
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _l = LOCK.lock().unwrap();
        let _g = register("t/nth", FaultSpec::error().nth(4));
        let fired: Vec<usize> = (0..10).filter(|_| probe("t/nth").is_err()).collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(site_stats("t/nth"), Some((10, 1)));
    }

    #[test]
    fn probabilistic_schedule_is_seeded_and_bounded() {
        let _l = LOCK.lock().unwrap();
        let run = |seed: u64| -> Vec<bool> {
            let _g = register("t/prob", FaultSpec::error().one_in(4, seed).max_fires(50));
            (0..200).map(|_| probe("t/prob").is_err()).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let fires = a.iter().filter(|f| **f).count();
        assert!((20..=90).contains(&fires), "~1/4 of 200, got {fires}");
    }

    #[test]
    fn delay_sleeps_and_panic_panics() {
        let _l = LOCK.lock().unwrap();
        {
            let _g = register(
                "t/delay",
                FaultSpec::delay(Duration::from_millis(20)).nth(1),
            );
            let t0 = Instant::now();
            assert_eq!(probe("t/delay"), Ok(()));
            assert!(t0.elapsed() >= Duration::from_millis(15));
        }
        let _g = register("t/panic", FaultSpec::panic().nth(1));
        let r = std::panic::catch_unwind(|| probe("t/panic"));
        let msg = format!("{:?}", r.unwrap_err().downcast_ref::<String>());
        assert!(msg.contains("t/panic"), "panic names the site: {msg}");
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _l = LOCK.lock().unwrap();
        let before = total_fires();
        {
            let _g = register("t/guard", FaultSpec::error());
            assert!(probe("t/guard").is_err());
        }
        assert_eq!(probe("t/guard"), Ok(()), "disarmed after guard drop");
        assert_eq!(total_fires(), before + 1);
        assert_eq!(site_stats("t/guard"), None);
    }
}
