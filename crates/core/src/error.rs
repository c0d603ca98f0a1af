use std::fmt;

/// Errors surfaced to transaction code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction was chosen as a deadlock victim and has been rolled
    /// back; the handle must not be used again. Retry with a fresh
    /// transaction.
    Deadlock,
    /// A lock wait hit the timeout backstop; the transaction has been
    /// rolled back, as for [`TxnError::Deadlock`]. Kept distinct so retry
    /// policy (and operators) can tell a detected cycle from a stall.
    Timeout,
    /// An operation was issued on a transaction that is not active
    /// (already committed, aborted, or never begun).
    NotActive,
    /// Insert of an object id that already exists in the index.
    ///
    /// This includes ids logically deleted by a still-active transaction
    /// (even the inserting one): the tombstoned entry remains physically
    /// present until the deleter commits and the deferred removal runs,
    /// so the id stays reserved until then. Re-use an id only after the
    /// transaction that deleted it has committed.
    DuplicateObject,
    /// An injected fault (the `dgl-faults` test harness) aborted the
    /// operation; the transaction has been rolled back. Never produced
    /// in builds without the `dgl-faults/enabled` feature. Retryable:
    /// chaos schedules are transient by construction.
    Injected,
    /// Maintenance permanently failed to apply one or more committed
    /// deferred deletions (their retry budget ran out). Surfaced by
    /// `quiesce`; the index may still hold tombstoned entries whose ids
    /// stay reserved.
    MaintenanceFailed,
    /// The write-ahead log could not make this transaction's commit
    /// durable (flush failure or simulated crash); the transaction has
    /// been rolled back. Not retryable: once the log is poisoned, no
    /// later commit can become durable either — the store must be
    /// recovered.
    Durability,
}

impl TxnError {
    /// Whether a fresh transaction retrying the same work can be expected
    /// to succeed. Deadlock victims, timeout victims and injected faults
    /// are transient (the conflicting transactions finish, the fault
    /// schedule moves on); the rest indicate a caller bug or a damaged
    /// maintenance pipeline that retrying cannot fix.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            TxnError::Deadlock | TxnError::Timeout | TxnError::Injected
        )
    }
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Deadlock => write!(f, "transaction aborted: deadlock victim"),
            TxnError::Timeout => write!(f, "transaction aborted: lock wait timeout"),
            TxnError::NotActive => write!(f, "transaction is not active"),
            TxnError::DuplicateObject => write!(f, "object id already present"),
            TxnError::Injected => write!(f, "transaction aborted: injected fault"),
            TxnError::MaintenanceFailed => {
                write!(
                    f,
                    "maintenance failed: deferred deletion exhausted its retry budget"
                )
            }
            TxnError::Durability => {
                write!(
                    f,
                    "transaction aborted: write-ahead log failed to make the commit durable"
                )
            }
        }
    }
}

impl std::error::Error for TxnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TxnError::Deadlock.to_string().contains("deadlock"));
        assert!(TxnError::Timeout.to_string().contains("timeout"));
        assert!(TxnError::NotActive.to_string().contains("not active"));
        assert!(TxnError::DuplicateObject.to_string().contains("already"));
        assert!(TxnError::Injected.to_string().contains("injected"));
        assert!(TxnError::MaintenanceFailed
            .to_string()
            .contains("maintenance"));
        assert!(TxnError::Durability.to_string().contains("durable"));
    }

    #[test]
    fn retry_classification() {
        assert!(TxnError::Deadlock.is_retryable());
        assert!(TxnError::Timeout.is_retryable());
        assert!(TxnError::Injected.is_retryable());
        assert!(!TxnError::NotActive.is_retryable());
        assert!(!TxnError::DuplicateObject.is_retryable());
        assert!(!TxnError::MaintenanceFailed.is_retryable());
        assert!(!TxnError::Durability.is_retryable());
    }
}
