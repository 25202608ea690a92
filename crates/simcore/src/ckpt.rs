//! A versioned, sequential checkpoint codec.
//!
//! Checkpoint artifacts are plain text: one `key=value` line per field, in
//! a fixed order. Each checkpointed type states that order once, in a
//! `persist(&mut self, c: &mut Ckpt)` walk over its fields. The same walk
//! writes the artifact when the codec is writing and parses each line back
//! into its field when the codec is reading, so the two directions cannot
//! drift apart: a new field is added in one place.
//!
//! The reader is strict — it verifies every key as it goes, so a truncated,
//! reordered, or wrong-version artifact fails loudly at the first mismatch
//! instead of silently restoring garbage state. Values are range-checked:
//! a `u32` field above `u32::MAX`, an index past its table, or a count
//! larger than the rest of the artifact can hold is an error, never a
//! truncation or a huge allocation.
//!
//! Values never lose precision: `f64` fields are stored as the hexadecimal
//! IEEE-754 bit pattern (`f<16 hex digits>`), not as a decimal rendering, so
//! a restored simulation is *bit-identical* to the one that was saved.
//! Strings must be newline-free (simulation state only carries identifiers
//! and labels, never free text).
//!
//! # Examples
//!
//! ```
//! use cdnc_simcore::ckpt::{Ckpt, CkptError};
//!
//! #[derive(Default)]
//! struct Meter {
//!     count: u64,
//!     rate: f64,
//! }
//!
//! impl Meter {
//!     fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
//!         c.u64("count", &mut self.count)?;
//!         c.f64("rate", &mut self.rate)
//!     }
//! }
//!
//! let mut saved = Meter { count: 3, rate: 0.25 };
//! let artifact = Ckpt::write("demo", |c| saved.persist(c));
//! assert_eq!(artifact, "ckpt_version=2\nckpt_kind=demo\ncount=3\nrate=f3fd0000000000000\n");
//!
//! let mut restored = Meter::default();
//! Ckpt::read(&artifact, "demo", |c| restored.persist(c)).unwrap();
//! assert_eq!((restored.count, restored.rate), (3, 0.25));
//! ```

use crate::rng::SimRng;
use crate::time::SimTime;
use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// Artifact format version; bumped on any incompatible layout change.
pub const CKPT_VERSION: u32 = 2;

/// A checkpoint decode failure: what was expected, what was found, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError(pub String);

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint decode error: {}", self.0)
    }
}

impl std::error::Error for CkptError {}

/// The checkpoint codec, either writing an artifact or reading one back.
///
/// Every method walks one field (or one group of fields) of a value: while
/// writing it emits the field's `key=value` line, while reading it parses
/// the next line into the field after checking the key.
#[derive(Debug)]
pub struct Ckpt<'a> {
    /// The artifact text not yet read; `None` while writing.
    input: Option<&'a str>,
    /// Number of the last line read, for error messages.
    line_no: usize,
    /// The artifact written so far.
    out: String,
}

impl Ckpt<'static> {
    /// Writes an artifact of `kind` (e.g. `"cdn-sim"`): the version header,
    /// the kind tag, then whatever `walk` persists.
    ///
    /// # Panics
    ///
    /// Panics if `walk` fails — the live state broke one of its own
    /// checkpoint invariants (an index past its table, a queue entry before
    /// the clock), which is a simulator bug.
    pub fn write(kind: &str, walk: impl FnOnce(&mut Self) -> Result<(), CkptError>) -> String {
        let mut c = Ckpt { input: None, line_no: 0, out: String::new() };
        if let Err(e) = c.header(kind).and_then(|()| walk(&mut c)) {
            panic!("live state violates its checkpoint layout: {e}");
        }
        c.out
    }
}

impl<'a> Ckpt<'a> {
    /// Reads an artifact of `kind` back through `walk`, verifying the
    /// version header and kind tag first and that nothing trails the walk.
    pub fn read(
        text: &'a str,
        kind: &str,
        walk: impl FnOnce(&mut Ckpt<'a>) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let mut c = Ckpt { input: Some(text), line_no: 0, out: String::new() };
        c.header(kind)?;
        walk(&mut c)?;
        match c.next_line() {
            None => Ok(()),
            Some(line) => Err(CkptError(format!("trailing artifact line {line:?}"))),
        }
    }

    fn header(&mut self, kind: &str) -> Result<(), CkptError> {
        let mut version = CKPT_VERSION;
        self.u32("ckpt_version", &mut version)?;
        if version != CKPT_VERSION {
            return Err(CkptError(format!(
                "unsupported checkpoint version {version} (this build reads {CKPT_VERSION})"
            )));
        }
        let mut found = kind.to_owned();
        self.str("ckpt_kind", &mut found)?;
        if found != kind {
            return Err(CkptError(format!("artifact kind {found:?}, expected {kind:?}")));
        }
        Ok(())
    }

    /// `true` while reading an artifact back, `false` while writing one.
    /// Walks branch on it only for work one direction needs, such as
    /// rebuilding an index from restored fields.
    pub fn is_reading(&self) -> bool {
        self.input.is_some()
    }

    fn error(&self, what: impl Display) -> CkptError {
        CkptError(format!("line {}: {what}", self.line_no))
    }

    /// Reading: the next artifact line (without its line ending), if any.
    fn next_line(&mut self) -> Option<&'a str> {
        let rest = self.input.filter(|rest| !rest.is_empty())?;
        let (line, rest) = rest.split_once('\n').unwrap_or((rest, ""));
        self.input = Some(rest);
        self.line_no += 1;
        Some(line.strip_suffix('\r').unwrap_or(line))
    }

    /// Writing: emits `key=value` and returns `None`. Reading: consumes the
    /// next line, checks its key is `key`, and returns its value.
    fn field(&mut self, key: &str, value: impl Display) -> Result<Option<&'a str>, CkptError> {
        if !self.is_reading() {
            debug_assert!(!key.contains(['=', '\n']), "bad checkpoint key {key:?}");
            let _ = writeln!(self.out, "{key}={value}");
            return Ok(None);
        }
        let line = self
            .next_line()
            .ok_or_else(|| CkptError(format!("unexpected end of artifact, wanted key {key:?}")))?;
        let (found, value) =
            line.split_once('=').ok_or_else(|| self.error(format!("malformed line {line:?}")))?;
        if found != key {
            return Err(self.error(format!("found key {found:?}, expected {key:?}")));
        }
        Ok(Some(value))
    }

    fn number<T: Copy + Display + FromStr>(
        &mut self,
        key: &str,
        v: &mut T,
        what: &str,
    ) -> Result<(), CkptError> {
        if let Some(s) = self.field(key, *v)? {
            *v = s.parse().map_err(|_| self.error(format!("bad {what} {s:?}")))?;
        }
        Ok(())
    }

    /// Walks an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: &mut u64) -> Result<(), CkptError> {
        self.number(key, v, "u64")
    }

    /// Walks a 32-bit unsigned field; reading rejects values above
    /// `u32::MAX` instead of truncating them.
    pub fn u32(&mut self, key: &str, v: &mut u32) -> Result<(), CkptError> {
        self.number(key, v, "u32")
    }

    /// Walks a 32-bit index into a table of `len` entries (a node, user or
    /// snapshot id, a catalog slot); an index not below `len` is an error.
    pub fn index(&mut self, key: &str, v: &mut u32, len: usize) -> Result<(), CkptError> {
        self.u32(key, v)?;
        if *v as usize >= len {
            return Err(self.error(format!("{key}={v} is out of range for {len} entries")));
        }
        Ok(())
    }

    /// Walks a boolean field (`0` / `1`).
    pub fn bool(&mut self, key: &str, v: &mut bool) -> Result<(), CkptError> {
        if let Some(s) = self.field(key, u8::from(*v))? {
            *v = match s {
                "0" => false,
                "1" => true,
                _ => return Err(self.error(format!("bad bool {s:?}"))),
            };
        }
        Ok(())
    }

    /// Walks a float field as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, key: &str, v: &mut f64) -> Result<(), CkptError> {
        if let Some(s) = self.field(key, format_args!("f{:016x}", v.to_bits()))? {
            let bits = s
                .strip_prefix('f')
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| self.error(format!("bad f64 bits {s:?}")))?;
            *v = f64::from_bits(bits);
        }
        Ok(())
    }

    /// Walks a simulated instant (stored in integer microseconds).
    pub fn time(&mut self, key: &str, v: &mut SimTime) -> Result<(), CkptError> {
        let mut micros = v.as_micros();
        self.u64(key, &mut micros)?;
        *v = SimTime::from_micros(micros);
        Ok(())
    }

    /// Walks a newline-free string field.
    ///
    /// # Panics
    ///
    /// Panics when writing a value that contains a newline — checkpoint
    /// state only carries identifiers and labels, never free text.
    pub fn str(&mut self, key: &str, v: &mut String) -> Result<(), CkptError> {
        assert!(!v.contains('\n'), "checkpoint string value contains a newline");
        if let Some(s) = self.field(key, v.as_str())? {
            s.clone_into(v);
        }
        Ok(())
    }

    /// Walks a [`SimRng`] mid-stream as six fields under `key` (see
    /// [`SimRng::persist`]); a read generator continues the saved draw and
    /// fork sequences exactly.
    pub fn rng(&mut self, key: &str, rng: &mut SimRng) -> Result<(), CkptError> {
        rng.persist(self, key)
    }

    /// Walks the length of a fixed-length sequence — one whose size the
    /// reader rebuilds from configuration. Reading fails unless the stored
    /// length equals `len`; the caller then walks the elements in place.
    pub fn fixed(&mut self, key: &str, len: usize) -> Result<(), CkptError> {
        let mut stored = len as u64;
        self.u64(key, &mut stored)?;
        if stored != len as u64 {
            return Err(self.error(format!("{key}: {len} here, checkpoint carries {stored}")));
        }
        Ok(())
    }

    /// Walks a variable-length sequence: its length under `key`, then each
    /// item through `each`. Any collection that iterates in a stable order
    /// works (`Vec`, `VecDeque`, `BTreeMap` as `(key, value)` pairs, …).
    ///
    /// Reading replaces `items` with the stored items, each built from
    /// `T::default()` and filled in by `each`. Every item takes at least one
    /// line, so a stored length beyond the bytes left is rejected up front;
    /// nothing is preallocated from it.
    pub fn seq<C, T>(
        &mut self,
        key: &str,
        items: &mut C,
        mut each: impl FnMut(&mut T, &mut Self) -> Result<(), CkptError>,
    ) -> Result<(), CkptError>
    where
        C: Default + IntoIterator<Item = T> + FromIterator<T>,
        T: Default,
    {
        let mut list: Vec<T> = if self.is_reading() {
            Vec::new()
        } else {
            std::mem::take(items).into_iter().collect()
        };
        let mut len = list.len() as u64;
        let walked = self.u64(key, &mut len).and_then(|()| {
            if let Some(left) = self.input.map(str::len).filter(|&left| len > left as u64) {
                return Err(self.error(format!("{key}={len} exceeds the {left} bytes left")));
            }
            for i in 0..len as usize {
                if i == list.len() {
                    list.push(T::default());
                }
                each(&mut list[i], self)?;
            }
            Ok(())
        });
        *items = list.into_iter().collect();
        walked
    }

    /// Walks an optional section: a presence flag under `key`, then the
    /// section through `each` when present. Sections mirror configuration,
    /// which the reader rebuilds rather than restores, so reading fails when
    /// the artifact's presence flag disagrees with `section`.
    pub fn section<T>(
        &mut self,
        key: &str,
        section: Option<&mut T>,
        each: impl FnOnce(&mut T, &mut Self) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let here = section.is_some();
        let mut stored = here;
        self.bool(key, &mut stored)?;
        if stored != here {
            let state = |present| if present { "present" } else { "absent" };
            return Err(self.error(format!(
                "section {key:?} is {} here but {} in the checkpoint",
                state(here),
                state(stored)
            )));
        }
        section.map_or(Ok(()), |s| each(s, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    /// One field of every leaf type and one use of every helper.
    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        big: u64,
        small: u32,
        node: u32,
        flag: bool,
        ratio: f64,
        at: SimTime,
        label: String,
        list: Vec<u32>,
        queue: VecDeque<(u32, SimTime)>,
        map: BTreeMap<u64, Vec<u64>>,
        grid: [u64; 3],
        extra: Option<u64>,
    }

    impl Sample {
        fn persist(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
            c.u64("big", &mut self.big)?;
            c.u32("small", &mut self.small)?;
            c.index("node", &mut self.node, 8)?;
            c.bool("flag", &mut self.flag)?;
            c.f64("ratio", &mut self.ratio)?;
            c.time("at", &mut self.at)?;
            c.str("label", &mut self.label)?;
            c.seq("list", &mut self.list, |v, c| c.u32("item", v))?;
            c.seq("queue", &mut self.queue, |(v, t), c| {
                c.u32("q_v", v)?;
                c.time("q_t", t)
            })?;
            c.seq("map", &mut self.map, |(k, vs), c| {
                c.u64("m_key", k)?;
                c.seq("m_vals", vs, |v, c| c.u64("m_val", v))
            })?;
            c.fixed("grid", self.grid.len())?;
            for cell in &mut self.grid {
                c.u64("cell", cell)?;
            }
            c.section("extra", self.extra.as_mut(), |v, c| c.u64("extra_v", v))
        }

        fn full() -> Sample {
            Sample {
                big: u64::MAX,
                small: u32::MAX,
                node: 7,
                flag: true,
                ratio: -0.1,
                at: SimTime::from_secs(7),
                label: "hybrid/8".to_owned(),
                list: vec![3, 1, 2],
                queue: VecDeque::from([(5, SimTime::from_micros(9)), (6, SimTime::ZERO)]),
                map: BTreeMap::from([(2, vec![20, 21]), (1, vec![]), (9, vec![90])]),
                grid: [4, 5, 6],
                extra: Some(11),
            }
        }
    }

    fn write(s: &mut Sample) -> String {
        Ckpt::write("test", |c| s.persist(c))
    }

    /// Reads `text` into a sample shaped like `Sample::full` (its fixed
    /// and optional parts must match; everything else is overwritten).
    fn read(text: &str) -> Result<Sample, CkptError> {
        let mut s = Sample { extra: Some(0), ..Sample::default() };
        Ckpt::read(text, "test", |c| s.persist(c)).map(|()| s)
    }

    #[test]
    fn round_trips_every_field_type() {
        let mut original = Sample::full();
        let text = write(&mut original);
        assert_eq!(original, Sample::full(), "writing leaves the value untouched");
        let mut restored = read(&text).unwrap();
        assert_eq!(restored, original);
        assert_eq!(restored.ratio.to_bits(), original.ratio.to_bits());
        assert_eq!(write(&mut restored), text, "re-writing a read value is byte-identical");
    }

    #[test]
    fn key_mismatch_is_an_error() {
        let text = write(&mut Sample::full()).replacen("small=", "smol=", 1);
        let err = read(&text).unwrap_err();
        assert!(err.0.contains("\"small\""), "error names the wanted key: {err}");
    }

    #[test]
    fn wrong_kind_and_version_are_rejected() {
        let text = Ckpt::write("alpha", |_| Ok(()));
        assert!(Ckpt::read(&text, "beta", |_| Ok(())).is_err());
        assert!(Ckpt::read(&text, "alpha", |_| Ok(())).is_ok());
        let bad_version = text.replacen(&format!("={CKPT_VERSION}"), "=999", 1);
        assert!(Ckpt::read(&bad_version, "alpha", |_| Ok(())).is_err());
    }

    #[test]
    fn truncation_and_trailing_state_are_errors() {
        let text = write(&mut Sample::full());
        let extra = format!("{text}stray=1\n");
        assert!(read(&extra).unwrap_err().0.contains("trailing"), "unread field must be reported");
        let truncated: String = text.lines().take(6).map(|l| format!("{l}\n")).collect();
        assert!(read(&truncated).is_err(), "missing field must be reported");
    }

    #[test]
    fn fixed_length_mismatch_is_an_error() {
        let text = write(&mut Sample::full()).replacen("grid=3", "grid=4", 1);
        assert!(read(&text).unwrap_err().0.contains("grid"));
    }

    #[test]
    fn presence_mismatch_is_an_error() {
        let text = write(&mut Sample { extra: None, ..Sample::full() });
        assert!(read(&text).unwrap_err().0.contains("\"extra\""));
    }

    #[test]
    fn count_beyond_the_remaining_lines_is_an_error() {
        let text = write(&mut Sample::full()).replacen("list=3", "list=18446744073709551615", 1);
        assert!(read(&text).unwrap_err().0.contains("bytes left"));
    }

    #[test]
    fn u32_overflow_and_out_of_range_index_are_errors() {
        let text = write(&mut Sample::full());
        let overflow = text.replacen("small=4294967295", "small=4294967296", 1);
        assert!(read(&overflow).unwrap_err().0.contains("bad u32"));
        let out_of_range = text.replacen("node=7", "node=8", 1);
        assert!(read(&out_of_range).unwrap_err().0.contains("out of range"));
    }

    #[test]
    fn rng_snapshot_round_trip_resumes_the_stream() {
        let mut rng = SimRng::seed_from_u64(17);
        for _ in 0..23 {
            rng.uniform_f64();
        }
        rng.fork();
        let text = Ckpt::write("test", |c| c.rng("r", &mut rng));
        let mut restored = SimRng::seed_from_u64(0);
        Ckpt::read(&text, "test", |c| c.rng("r", &mut restored)).unwrap();
        for _ in 0..32 {
            assert_eq!(rng.uniform_f64().to_bits(), restored.uniform_f64().to_bits());
        }
        assert_eq!(rng.fork().uniform_f64().to_bits(), restored.fork().uniform_f64().to_bits());
    }

    proptest! {
        /// Floats survive the bit-pattern encoding exactly, including
        /// negative zero and subnormals.
        #[test]
        fn prop_f64_bits_round_trip(bits in 0u64..=u64::MAX) {
            let mut value = f64::from_bits(bits);
            let text = Ckpt::write("test", |c| c.f64("x", &mut value));
            let mut back = 0.0;
            Ckpt::read(&text, "test", |c| c.f64("x", &mut back)).unwrap();
            prop_assert_eq!(back.to_bits(), bits);
        }
    }
}
