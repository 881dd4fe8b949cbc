//! Admission refusals: one structured rejection surface.
//!
//! [`RejectReason`] is the one shape every "no" in the workspace takes:
//! the admission policy over a verifier analysis ([`Analysis::admit`],
//! which the runtime driver applies to every loadable it admits, and
//! through it the `netpu-serve` and `netpu-fleet` submit paths and the
//! compiled-model cache), and the serving layers' own backpressure,
//! throttling, shutdown and crash-recovery refusals. It carries the NPC
//! rule IDs and byte offsets of verifier findings where they exist. The
//! trace layer (`netpu-trace`) encodes the same [`RejectReason::code`]
//! strings, so a recorded trace and a live client observe identical
//! reasons.

use crate::diag::{Report, RuleId};
use crate::Analysis;
use std::fmt;

/// Why an admission gate refused a request.
///
/// Marked `#[non_exhaustive]`: serving layers grow refusal classes
/// (new fairness policies, new recovery outcomes) without breaking
/// downstream matches.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum RejectReason {
    /// The static verifier rejected the stream: the [`Report`] carries
    /// every finding with its stable NPC rule ID and byte offset.
    Invalid {
        /// The verifier's findings.
        report: Report,
    },
    /// A bounded admission queue was full — explicit backpressure.
    QueueFull {
        /// Queue depth at the time of refusal (== the bound).
        queue_len: usize,
    },
    /// The tenant's token bucket refused the request (fairness).
    Throttled {
        /// The refused tenant.
        tenant: u64,
    },
    /// The serving layer has shut down; no new work is admitted.
    Closed,
    /// Crash-only recovery gave up on the request: a worker died while
    /// serving it and the requeue budget was exhausted (or the queue
    /// refused the requeue). The request was never completed and never
    /// delivered twice.
    WorkerCrash {
        /// Worker deaths the request survived before being rejected.
        crashes: u32,
    },
}

impl RejectReason {
    /// Stable machine-readable code naming the refusal class. The NPC
    /// rule IDs of an `Invalid` rejection are reachable through
    /// [`rules`](RejectReason::rules); this code names only the class.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::Invalid { .. } => "INVALID_STREAM",
            RejectReason::QueueFull { .. } => "QUEUE_FULL",
            RejectReason::Throttled { .. } => "THROTTLED",
            RejectReason::Closed => "CLOSED",
            RejectReason::WorkerCrash { .. } => "WORKER_CRASH",
        }
    }

    /// The error-severity findings behind an `Invalid` rejection, as
    /// `(rule, byte_offset)` pairs in stream order; empty for every
    /// other reason. This is the machine-readable payload the fuzzer
    /// keys its coverage map on and the trace format serializes.
    pub fn rules(&self) -> Vec<(RuleId, Option<usize>)> {
        match self {
            RejectReason::Invalid { report } => {
                report.errors().map(|d| (d.rule, d.byte_offset)).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The verifier report of an `Invalid` rejection.
    pub fn report(&self) -> Option<&Report> {
        match self {
            RejectReason::Invalid { report } => Some(report),
            _ => None,
        }
    }

    /// `true` when retrying the identical request could succeed
    /// (transient refusals: backpressure, throttling, worker crashes).
    /// `Invalid` streams fail identically forever; `Closed` servers
    /// stay closed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            RejectReason::QueueFull { .. }
                | RejectReason::Throttled { .. }
                | RejectReason::WorkerCrash { .. }
        )
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Invalid { report } => {
                write!(f, "invalid stream: {report}")
            }
            RejectReason::QueueFull { queue_len } => {
                write!(f, "queue full at depth {queue_len}")
            }
            RejectReason::Throttled { tenant } => {
                write!(f, "tenant {tenant} throttled")
            }
            RejectReason::Closed => f.write_str("admission closed"),
            RejectReason::WorkerCrash { crashes } => {
                write!(f, "rejected after {crashes} worker crash(es)")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

impl Analysis {
    /// The workspace's admission policy over this analysis' report:
    /// structural errors (NPC001–NPC013) always refuse, error-class
    /// range findings (NPC014–NPC020) refuse under `strict_range`, and
    /// error-class equivalence findings (NPC021/NPC022/NPC024, from the
    /// [`symex`](crate::symex) translation validator) refuse under
    /// `strict_equiv`. Findings a lenient policy admits stay readable in
    /// the report; the report is cloned into the reason only on refusal.
    pub fn admit(&self, strict_range: bool, strict_equiv: bool) -> Result<(), RejectReason> {
        let report = &self.report;
        if report.has_structural_errors()
            || (strict_range && report.has_range_errors())
            || (strict_equiv && report.has_equiv_errors())
        {
            return Err(RejectReason::Invalid {
                report: report.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn analysis(report: Report) -> Analysis {
        Analysis {
            report,
            timing: None,
            range: None,
        }
    }

    fn report_with(rule: RuleId, severity: Severity, offset: Option<usize>) -> Analysis {
        let mut r = Report::default();
        r.push(rule, severity, offset, None, "test finding".into());
        analysis(r)
    }

    #[test]
    fn structural_errors_always_reject() {
        for strict in [true, false] {
            let verdict =
                report_with(RuleId::Npc001, Severity::Error, Some(0)).admit(strict, false);
            let reason = verdict.expect_err("rejected");
            assert_eq!(reason.code(), "INVALID_STREAM");
            assert_eq!(reason.rules(), vec![(RuleId::Npc001, Some(0))]);
            assert!(!reason.is_transient());
        }
    }

    #[test]
    fn range_errors_reject_only_under_strict() {
        let analysis = report_with(RuleId::Npc014, Severity::Error, None);
        assert!(matches!(
            analysis.admit(true, false),
            Err(RejectReason::Invalid { .. })
        ));
        assert_eq!(analysis.admit(false, false), Ok(()));
        assert!(analysis.report.has_range_errors());
    }

    #[test]
    fn warnings_admit_cleanly() {
        let analysis = report_with(RuleId::Npc007, Severity::Warning, Some(16));
        assert_eq!(analysis.admit(true, true), Ok(()));
        assert!(!analysis.report.has_range_errors());
    }

    #[test]
    fn codes_and_transience_cover_every_class() {
        let reasons = [
            RejectReason::Invalid {
                report: Report::default(),
            },
            RejectReason::QueueFull { queue_len: 4 },
            RejectReason::Throttled { tenant: 7 },
            RejectReason::Closed,
            RejectReason::WorkerCrash { crashes: 2 },
        ];
        let codes: Vec<&str> = reasons.iter().map(RejectReason::code).collect();
        assert_eq!(
            codes,
            vec![
                "INVALID_STREAM",
                "QUEUE_FULL",
                "THROTTLED",
                "CLOSED",
                "WORKER_CRASH"
            ]
        );
        assert!(reasons[1].is_transient() && reasons[2].is_transient());
        assert!(reasons[4].is_transient());
        assert!(!reasons[0].is_transient() && !reasons[3].is_transient());
        for r in &reasons {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn rules_surface_only_error_findings_with_offsets() {
        let mut report = Report::default();
        report.push(
            RuleId::Npc007,
            Severity::Warning,
            Some(8),
            None,
            "warn".into(),
        );
        report.push(
            RuleId::Npc005,
            Severity::Error,
            Some(24),
            None,
            "short".into(),
        );
        let reason = analysis(report).admit(true, false).expect_err("rejected");
        assert_eq!(reason.rules(), vec![(RuleId::Npc005, Some(24))]);
        assert!(reason.report().is_some());
    }
}
