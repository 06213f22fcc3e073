//! Deterministic binary checkpoints of simulator and protocol state.
//!
//! A checkpoint is a version-tagged byte snapshot of *everything* that
//! influences a run's future: actor state, pending events (with their
//! insertion sequence numbers, which are tie-breakers in the calendar
//! queue), the RNG state, timers, metrics, traces and the channel
//! model. The hard contract — enforced by `tests/checkpoint_differential.rs`
//! — is that restore-then-run is **byte-identical** to an uninterrupted
//! run, for any `CBFD_WORKERS`.
//!
//! The format is deliberately simple: a magic header, a format version,
//! then fields in declaration order, all integers big-endian, floats as
//! raw IEEE-754 bits (never formatted/parsed, so round-trips are
//! exact). Collections are length-prefixed; maps are written in sorted
//! key order so the encoding of equal states is equal bytes.
//!
//! Sorted-key encoding also makes the format *layout-independent*: a
//! sorted vector of pairs, a `BTreeMap`, and a `HashMap` holding the
//! same entries all serialize to the same bytes. The flat protocol
//! ledgers of `cbfd_core::ledger` (DESIGN.md §16) lean on exactly
//! that — they replaced the node's tree/hash containers without a
//! version bump, and pre-rewrite snapshots restore into flat state
//! unchanged.
//!
//! Types opt in by implementing [`Persist`]; the [`impl_persist!`](crate::impl_persist)
//! macro generates field-by-field implementations for structs whose
//! fields all implement it themselves.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;

/// Leading magic of every checkpoint.
pub const MAGIC: [u8; 8] = *b"CBFDCKPT";

/// Current checkpoint format version.
///
/// History: `1` — initial format; `2` — adaptive ◇P detection state
/// (per-link estimators, suspicion log, gateway dedup ledger) joined
/// `FdsNode`, and digests grew the optional suspicion field. Version-1
/// snapshots cannot express that state, so the versions reject each
/// other rather than misread trailing fields; `3` — `NodeStats` lost
/// its id-list shadow byte counter (8 bytes per node), so version-2
/// node encodings no longer line up and are rejected the same way;
/// `4` — six fixed `FdsConfig` tunables (peer-forward slots,
/// retransmit cap, the four adaptive thresholds) became constants, so
/// every persisted config is 36 bytes shorter.
pub const FORMAT_VERSION: u32 = 4;

/// Errors surfaced while writing or reading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the snapshot was complete.
    Truncated,
    /// The leading magic bytes are wrong — not a checkpoint.
    BadMagic,
    /// The checkpoint was written by an unknown format version.
    UnsupportedVersion(u32),
    /// A structurally invalid encoding (bad tag, inconsistent
    /// lengths, a state the runtime cannot rebuild).
    Corrupt(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only byte sink for checkpoint encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes (caller encodes the length).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked cursor over checkpoint bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        let b = *self.buf.get(self.pos).ok_or(CheckpointError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_be_bytes(
            self.get_array::<4>()?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_be_bytes(
            self.get_array::<8>()?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn get_array<const N: usize>(&mut self) -> Result<&'a [u8], CheckpointError> {
        self.get_bytes(N)
    }
}

/// Writes the checkpoint magic and format version.
pub fn write_header(w: &mut Writer) {
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
}

/// Validates the magic and format version at the reader's position.
///
/// # Errors
///
/// Fails on short input, foreign bytes, or a version this build does
/// not understand.
pub fn read_header(r: &mut Reader<'_>) -> Result<(), CheckpointError> {
    let magic = r.get_bytes(MAGIC.len())?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    Ok(())
}

/// A type that can be written into and rebuilt from a checkpoint.
pub trait Persist: Sized {
    /// Appends the value's encoding to `w`.
    fn persist(&self, w: &mut Writer);

    /// Rebuilds a value from the reader's position.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a structurally invalid encoding.
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

/// Generates a field-by-field [`Persist`] impl for a struct whose
/// fields all implement [`Persist`]. Must be invoked where the fields
/// are visible (usually the defining module).
#[macro_export]
macro_rules! impl_persist {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::checkpoint::Persist for $ty {
            fn persist(&self, w: &mut $crate::checkpoint::Writer) {
                $( $crate::checkpoint::Persist::persist(&self.$field, w); )*
            }
            fn restore(
                r: &mut $crate::checkpoint::Reader<'_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(Self {
                    $( $field: $crate::checkpoint::Persist::restore(r)?, )*
                })
            }
        }
    };
}

impl Persist for u8 {
    fn persist(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        r.get_u8()
    }
}

impl Persist for u16 {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(u32::from(*self));
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        u16::try_from(r.get_u32()?).map_err(|_| CheckpointError::Corrupt("u16 out of range"))
    }
}

impl Persist for u32 {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        r.get_u32()
    }
}

impl Persist for u64 {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        r.get_u64()
    }
}

impl Persist for usize {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(r.get_u64()?).map_err(|_| CheckpointError::Corrupt("usize out of range"))
    }
}

impl Persist for i32 {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(*self as u32);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(r.get_u32()? as i32)
    }
}

impl Persist for i64 {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(r.get_u64()? as i64)
    }
}

impl Persist for bool {
    fn persist(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool tag")),
        }
    }
}

impl Persist for f64 {
    // Raw IEEE-754 bits: exact round-trip, including signed zeros and
    // any NaN payload that might have crept into a metric.
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.to_bits());
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Persist for String {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::restore(r)?;
        let bytes = r.get_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Corrupt("utf-8 string"))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn persist(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.persist(w);
            }
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            _ => Err(CheckpointError::Corrupt("option tag")),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::restore(r)?;
        // Collections are at least one byte per element in this format,
        // so a lying length cannot force a huge allocation.
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for Box<T> {
    fn persist(&self, w: &mut Writer) {
        (**self).persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Box::new(T::restore(r)?))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&self, w: &mut Writer) {
        self.0.persist(w);
        self.1.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn persist(&self, w: &mut Writer) {
        self.0.persist(w);
        self.1.persist(w);
        self.2.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.persist(w);
            v.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::restore(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::restore(r)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<K, V> Persist for HashMap<K, V>
where
    K: Persist + Ord + Hash + Eq,
    V: Persist,
{
    // Hash maps iterate in arbitrary order; sorting the keys makes the
    // encoding of equal maps equal bytes — load-bearing for the
    // "checkpoint of a restored run equals checkpoint of an
    // uninterrupted run" differential tests.
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (k, v) in entries {
            k.persist(w);
            v.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::restore(r)?;
        let mut out = HashMap::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl Persist for crate::id::NodeId {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(crate::id::NodeId(r.get_u32()?))
    }
}

impl Persist for crate::id::ClusterId {
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.head().0);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(crate::id::ClusterId::of(crate::id::NodeId(r.get_u32()?)))
    }
}

impl Persist for crate::time::SimTime {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.as_micros());
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(crate::time::SimTime::from_micros(r.get_u64()?))
    }
}

impl Persist for crate::time::SimDuration {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.as_micros());
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(crate::time::SimDuration::from_micros(r.get_u64()?))
    }
}

impl Persist for crate::geometry::Point {
    fn persist(&self, w: &mut Writer) {
        self.x.persist(w);
        self.y.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(crate::geometry::Point {
            x: f64::restore(r)?,
            y: f64::restore(r)?,
        })
    }
}

impl Persist for crate::actor::TimerToken {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(crate::actor::TimerToken(r.get_u64()?))
    }
}

impl Persist for rand::rngs::StdRng {
    fn persist(&self, w: &mut Writer) {
        for word in self.state() {
            w.put_u64(word);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.get_u64()?;
        }
        Ok(rand::rngs::StdRng::from_state(s))
    }
}

impl Persist for crate::topology::Topology {
    // Adjacency is a pure function of positions and range
    // (`from_positions` is deterministic), so only those are stored.
    fn persist(&self, w: &mut Writer) {
        self.positions().to_vec().persist(w);
        self.range().persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let positions = Vec::restore(r)?;
        let range: f64 = f64::restore(r)?;
        // `partial_cmp` keeps the NaN rejection explicit.
        if range.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CheckpointError::Corrupt("non-positive radio range"));
        }
        Ok(crate::topology::Topology::from_positions(positions, range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Writer::new();
        value.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::restore(&mut r).expect("restore");
        assert_eq!(back, value);
        assert_eq!(r.remaining(), 0, "nothing left over");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(-7i32);
        round_trip(i64::MIN);
        round_trip(true);
        round_trip(false);
        round_trip(-0.0f64);
        round_trip(f64::MAX);
        round_trip(String::from("snapshot"));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u32, 2, 3]);
        round_trip((1u32, 2u64));
        round_trip((1u32, 2u64, true));
        round_trip(BTreeMap::from([(1u32, 10u64), (2, 20)]));
        round_trip(BTreeSet::from([NodeId(3), NodeId(1)]));
        round_trip(HashMap::from([(5u64, 50u32), (1, 10)]));
    }

    #[test]
    fn hashmap_encoding_is_order_independent() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..50u32 {
            a.insert(i, i * 3);
        }
        for i in (0..50u32).rev() {
            b.insert(i, i * 3);
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        a.persist(&mut wa);
        b.persist(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let mut w = Writer::new();
        write_header(&mut w);
        let bytes = w.into_bytes();
        assert!(read_header(&mut Reader::new(&bytes)).is_ok());

        assert_eq!(
            read_header(&mut Reader::new(b"NOTACKPT\0\0\0\x01")),
            Err(CheckpointError::BadMagic)
        );
        let mut future = Writer::new();
        future.put_bytes(&MAGIC);
        future.put_u32(FORMAT_VERSION + 1);
        assert_eq!(
            read_header(&mut Reader::new(&future.into_bytes())),
            Err(CheckpointError::UnsupportedVersion(FORMAT_VERSION + 1))
        );
        // Mutual rejection across every bump (v1 → v2 added the
        // adaptive fields to `FdsNode`, v2 → v3 took 8 bytes out of
        // `NodeStats`): an older snapshot must be refused by name, not
        // misread.
        for old in 1..FORMAT_VERSION {
            let mut w = Writer::new();
            w.put_bytes(&MAGIC);
            w.put_u32(old);
            assert_eq!(
                read_header(&mut Reader::new(&w.into_bytes())),
                Err(CheckpointError::UnsupportedVersion(old))
            );
        }
        assert_eq!(
            read_header(&mut Reader::new(b"CB")),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].persist(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(Vec::<u64>::restore(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn lying_vec_length_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Vec::<u8>::restore(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn rng_round_trip_continues_stream() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..31 {
            rng.next_u64();
        }
        let mut w = Writer::new();
        rng.persist(&mut w);
        let bytes = w.into_bytes();
        let mut restored = StdRng::restore(&mut Reader::new(&bytes)).unwrap();
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn topology_round_trip_preserves_adjacency() {
        use crate::geometry::Point;
        let topo = crate::topology::Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(60.0, 0.0),
                Point::new(300.0, 0.0),
            ],
            100.0,
        );
        let mut w = Writer::new();
        topo.persist(&mut w);
        let bytes = w.into_bytes();
        let back = crate::topology::Topology::restore(&mut Reader::new(&bytes)).unwrap();
        for n in topo.node_ids() {
            assert_eq!(back.neighbors(n), topo.neighbors(n));
        }
    }
}
