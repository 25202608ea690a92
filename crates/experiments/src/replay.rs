//! Checkpoint/replay plumbing for the `experiments checkpoint` and
//! `experiments replay` subcommands.
//!
//! A replay artifact is one plain-text file: a small experiments-level
//! header naming the `ext_churn` sweep cell it reproduces (scheme, churn
//! intensity, flash incident, scale, checkpoint time) followed by the core
//! simulator artifact from [`cdnc_core::checkpoint`]. The header is enough
//! to rebuild the exact [`SimConfig`], so a replay
//! needs nothing but the file — no flags have to match the original run.
//!
//! `replay` is self-verifying: it restores the artifact, runs it forward,
//! runs the same configuration uninterrupted from scratch, and compares
//! both the determinism-digest chains and the end states. The CLI prints
//! the verdict as stable `key=value` lines (`replay_chain_match=true`)
//! that CI greps.

use crate::ext_figs::{churn_config, churn_scheme, CHURN_SCHEME_KEYS};
use crate::{RunCtx, Scale};
use cdnc_core::SimConfig;
use cdnc_obs::{DigestConfig, Registry};
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::SimTime;

/// Artifact kind tag of the experiments-level header.
pub const REPLAY_KIND: &str = "cdn-replay";

/// Lines the header occupies (version + kind + the [`ReplaySpec`] fields);
/// everything after is the embedded core artifact.
const HEADER_LINES: usize = 7;

/// Which `ext_churn` cell a replay artifact reproduces, and when the
/// checkpoint was taken.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplaySpec {
    /// Scheme key, one of [`CHURN_SCHEME_KEYS`].
    pub scheme_key: String,
    /// Stochastic churn intensity in `[0, 1]`.
    pub intensity: f64,
    /// Whether the scheduled supernode-kill + flash-restart incident is
    /// armed.
    pub flash: bool,
    /// Experiment scale the cell ran at.
    pub scale: Scale,
    /// Simulation time the checkpoint was taken.
    pub at: SimTime,
}

impl ReplaySpec {
    /// Rebuilds the exact simulation configuration of this cell
    /// (canonical replicate, serial pool — a replay is one run).
    pub fn config(&self) -> Option<SimConfig> {
        let scheme = churn_scheme(&self.scheme_key)?;
        Some(churn_config(RunCtx::new(self.scale), scheme, self.intensity, self.flash))
    }

    /// Walks the spec as the replay header's checkpoint fields. Reading
    /// fails on an unknown scheme key or scale name.
    fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.str("scheme", &mut self.scheme_key)?;
        if churn_scheme(&self.scheme_key).is_none() {
            return Err(CkptError(format!(
                "unknown scheme {:?} in replay header (one of: {})",
                self.scheme_key,
                CHURN_SCHEME_KEYS.join(", ")
            )));
        }
        c.f64("intensity", &mut self.intensity)?;
        c.bool("flash", &mut self.flash)?;
        let mut scale = self.scale.arg_name().to_owned();
        c.str("scale", &mut scale)?;
        self.scale = Scale::parse(&scale)
            .ok_or_else(|| CkptError(format!("unknown scale {scale:?} in replay header")))?;
        c.time("at", &mut self.at)
    }
}

/// The self-verification result of one replay.
#[derive(Debug, Clone)]
pub struct ReplayVerdict {
    /// The cell that was replayed.
    pub spec: ReplaySpec,
    /// Digest chain of the restored-then-continued run.
    pub replay_chain: u64,
    /// Digest chain of the uninterrupted from-scratch run.
    pub straight_chain: u64,
    /// Events folded into each chain (replay, straight).
    pub replay_events: u64,
    /// Events folded into the straight chain.
    pub straight_events: u64,
    /// Chains and fold counts agree — every scheduled event after the
    /// restore point was bit-identical.
    pub chain_match: bool,
    /// End states agree: the final [`SimReport`](cdnc_core::SimReport)s
    /// are equal (full replay), or the re-serialized checkpoint artifacts
    /// are byte-identical (`--until` replay).
    pub report_match: bool,
}

/// Runs the cell until `spec.at` and serializes it into one replay
/// artifact (header + core checkpoint).
///
/// The checkpointing run always carries an armed determinism digest — the
/// artifact must embed the chain state up to `spec.at`, or a later replay
/// could not verify chain continuity against a from-scratch run. The
/// digest is armed on `obs` itself when it is enabled (so `--obs` metrics
/// still record), or on a private registry otherwise.
pub fn take_checkpoint(spec: &ReplaySpec, obs: &Registry) -> String {
    let cfg = spec.config().expect("scheme key validated by the caller");
    obs.enable_digest(DigestConfig::default());
    let private;
    let reg = if obs.digest_snapshot().is_some() {
        obs
    } else {
        private = digest_registry();
        &private
    };
    let core = cdnc_core::checkpoint_with_obs(&cfg, reg, spec.at);
    let mut text = Ckpt::write(REPLAY_KIND, |c| spec.clone().persist(c));
    text.push_str(&core);
    text
}

/// Splits a replay artifact into its parsed header and the embedded core
/// artifact text.
pub fn read_artifact(text: &str) -> Result<(ReplaySpec, &str), CkptError> {
    let (header, core) = split_after_line(text, HEADER_LINES)
        .ok_or_else(|| CkptError("artifact shorter than the replay header".to_owned()))?;
    let mut spec = ReplaySpec::default();
    Ckpt::read(header, REPLAY_KIND, |c| spec.persist(c))?;
    Ok((spec, core))
}

/// Restores a replay artifact, runs it forward — to the horizon, or only
/// `until` when given — and self-verifies against an uninterrupted run of
/// the same configuration.
///
/// Both runs carry an armed determinism digest; the verdict compares the
/// chains plus the end states. Bit-identical replay means both `*_match`
/// fields are `true`.
pub fn replay(text: &str, until: Option<SimTime>) -> Result<ReplayVerdict, CkptError> {
    let (spec, core) = read_artifact(text)?;
    let cfg = spec.config().expect("read_artifact validated the scheme key");
    let replay_reg = digest_registry();
    let straight_reg = digest_registry();
    let report_match = match until {
        None => {
            let replayed = cdnc_core::resume_with_obs(&cfg, &replay_reg, core)?;
            let straight = cdnc_core::run_with_obs(&cfg, &straight_reg);
            replayed == straight
        }
        Some(t) => {
            if t < spec.at {
                return Err(CkptError(format!(
                    "--until {:.3}s is before the checkpoint time {:.3}s",
                    t.as_secs_f64(),
                    spec.at.as_secs_f64()
                )));
            }
            let replayed = cdnc_core::resume_until_with_obs(&cfg, &replay_reg, core, t)?;
            let straight = cdnc_core::checkpoint_with_obs(&cfg, &straight_reg, t);
            replayed == straight
        }
    };
    let rd = replay_reg.digest_snapshot().expect("digest armed above");
    let sd = straight_reg.digest_snapshot().expect("digest armed above");
    Ok(ReplayVerdict {
        spec,
        replay_chain: rd.chain,
        straight_chain: sd.chain,
        replay_events: rd.events,
        straight_events: sd.events,
        chain_match: rd.chain == sd.chain && rd.events == sd.events,
        report_match,
    })
}

/// A fresh registry with only the determinism digest armed.
fn digest_registry() -> Registry {
    let reg = Registry::enabled();
    reg.enable_digest(DigestConfig::default());
    reg
}

/// Splits `text` just after its `n`-th newline.
fn split_after_line(text: &str, n: usize) -> Option<(&str, &str)> {
    let mut seen = 0;
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            seen += 1;
            if seen == n {
                return Some(text.split_at(i + 1));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec() -> ReplaySpec {
        ReplaySpec {
            scheme_key: "hat".to_owned(),
            intensity: 0.8,
            flash: true,
            scale: Scale::Smoke,
            at: SimTime::from_secs(240),
        }
    }

    #[test]
    fn artifact_round_trips_the_spec() {
        let spec = smoke_spec();
        let text = take_checkpoint(&spec, &Registry::disabled());
        let (read, core) = read_artifact(&text).unwrap();
        assert_eq!(read, spec);
        assert!(core.starts_with("ckpt_version="), "core artifact follows the header");
    }

    #[test]
    fn full_replay_is_bit_identical() {
        let text = take_checkpoint(&smoke_spec(), &Registry::disabled());
        let v = replay(&text, None).unwrap();
        assert!(v.chain_match, "chains {:#x} vs {:#x}", v.replay_chain, v.straight_chain);
        assert!(v.report_match);
        assert_eq!(v.replay_events, v.straight_events);
    }

    #[test]
    fn windowed_replay_matches_a_straight_checkpoint() {
        let text = take_checkpoint(&smoke_spec(), &Registry::disabled());
        let v = replay(&text, Some(SimTime::from_secs(420))).unwrap();
        assert!(v.chain_match && v.report_match, "anomaly window replay diverged");
    }

    #[test]
    fn windowed_replay_rejects_a_window_before_the_checkpoint() {
        let text = take_checkpoint(&smoke_spec(), &Registry::disabled());
        let err = replay(&text, Some(SimTime::from_secs(60))).unwrap_err();
        assert!(err.0.contains("before the checkpoint"), "{err}");
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        assert!(read_artifact("ckpt_version=1\n").is_err(), "truncated header");
        let text = take_checkpoint(&smoke_spec(), &Registry::disabled());
        let bad = text.replace("scheme=hat", "scheme=carrier-pigeon");
        assert!(read_artifact(&bad).is_err(), "unknown scheme");
        let bad = text.replace("scale=smoke", "scale=galactic");
        assert!(read_artifact(&bad).is_err(), "unknown scale");
    }
}
