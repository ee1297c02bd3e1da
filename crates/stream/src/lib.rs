//! Stream and window models for robust distinct sampling.
//!
//! The paper studies three computational models (Section 1):
//!
//! * the **infinite window** (standard streaming) model;
//! * the **sequence-based sliding window**: the last `w` *points*;
//! * the **time-based sliding window**: the points of the last `w` *time
//!   steps*.
//!
//! Its sliding-window algorithms work in both window flavours — "the only
//! difference is the definition of the expiration of a point". This crate
//! encodes that difference once ([`Window`]) so the samplers can be written
//! window-agnostically.

#![warn(missing_docs)]

mod zipf;

pub use zipf::{ZipfError, ZipfKeys};

use rds_geometry::Point;
use serde::{Deserialize, Serialize};

/// The position of a stream item in both window clocks: its sequence number
/// (arrival index) and its timestamp.
///
/// For sequence-based windows only `seq` matters; for time-based windows
/// only `time`. Items must arrive with non-decreasing stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Stamp {
    /// Arrival index (0-based, strictly increasing).
    pub seq: u64,
    /// Timestamp (non-decreasing; multiple items may share one time step).
    pub time: u64,
}

impl Stamp {
    /// Creates a stamp with equal sequence number and time, the common case
    /// where one item arrives per time step.
    pub fn at(seq: u64) -> Self {
        Self { seq, time: seq }
    }

    /// Creates a stamp with distinct sequence number and timestamp.
    pub fn new(seq: u64, time: u64) -> Self {
        Self { seq, time }
    }
}

/// A point together with its arrival stamp.
#[derive(Clone, Debug)]
pub struct StreamItem {
    /// The data point.
    pub point: Point,
    /// When it arrived.
    pub stamp: Stamp,
}

impl StreamItem {
    /// Convenience constructor.
    pub fn new(point: Point, stamp: Stamp) -> Self {
        Self { point, stamp }
    }
}

/// A window model over the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// The whole stream (standard streaming model).
    Infinite,
    /// The last `w` points (`w >= 1`).
    Sequence(u64),
    /// The points with timestamps in `(now - w, now]` (`w >= 1`).
    Time(u64),
}

impl Window {
    /// Whether an item stamped `stamp` is still inside the window when the
    /// current clock reads `now`.
    ///
    /// * `Infinite`: always.
    /// * `Sequence(w)`: the live items are the `w` most recent, i.e. those
    ///   with `seq > now.seq - w`.
    /// * `Time(w)`: the live items are those received in the last `w` time
    ///   steps, i.e. with `time > now.time - w`.
    #[inline]
    pub fn live(&self, stamp: Stamp, now: Stamp) -> bool {
        // Saturating: a width near u64::MAX (a de-facto infinite window)
        // must not overflow `stamp + w` and wrongly expire everything.
        match *self {
            Window::Infinite => true,
            Window::Sequence(w) => stamp.seq.saturating_add(w) > now.seq,
            Window::Time(w) => stamp.time.saturating_add(w) > now.time,
        }
    }

    /// Whether the window provably contains no items — never true for
    /// the window models here (every model keeps at least the newest
    /// item), provided for `len`/`is_empty` API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The window length parameter `w`, if bounded.
    pub fn len(&self) -> Option<u64> {
        match *self {
            Window::Infinite => None,
            Window::Sequence(w) | Window::Time(w) => Some(w),
        }
    }

    /// Whether this is the infinite window.
    pub fn is_infinite(&self) -> bool {
        matches!(self, Window::Infinite)
    }
}

// The vendored serde derive handles only named-field structs, so the
// window enum maps to/from a `{ "model": ..., "w": ... }` tree by hand.
impl serde::Serialize for Window {
    fn to_value(&self) -> serde::Value {
        let (model, w) = match *self {
            Window::Infinite => ("infinite", None),
            Window::Sequence(w) => ("sequence", Some(w)),
            Window::Time(w) => ("time", Some(w)),
        };
        let mut entries = vec![("model".to_string(), serde::Value::Str(model.to_string()))];
        if let Some(w) = w {
            entries.push(("w".to_string(), serde::Value::U64(w)));
        }
        serde::Value::Map(entries)
    }
}

impl serde::Deserialize for Window {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let model = match value.get("model") {
            Some(serde::Value::Str(s)) => s.as_str(),
            _ => return Err(serde::DeError::missing("model")),
        };
        let w = || -> Result<u64, serde::DeError> {
            u64::from_value(value.get("w").unwrap_or(&serde::Value::Null))
                .map_err(|e| serde::DeError::custom(format!("field `w`: {e}")))
        };
        match model {
            "infinite" => Ok(Window::Infinite),
            "sequence" => Ok(Window::Sequence(w()?)),
            "time" => Ok(Window::Time(w()?)),
            other => Err(serde::DeError::custom(format!(
                "unknown window model `{other}`"
            ))),
        }
    }
}

/// Wraps a sequence of points into stream items stamped `0, 1, 2, ...`
/// (sequence number == timestamp).
pub fn enumerate_stream<I>(points: I) -> Vec<StreamItem>
where
    I: IntoIterator<Item = Point>,
{
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| StreamItem::new(p, Stamp::at(i as u64)))
        .collect()
}

/// Iterator adapter yielding the underlying items in `Vec` batches of at
/// most `size` elements (the last batch may be shorter). Built by
/// [`batched`]; the unit ingestion hot paths (`rds-engine`,
/// `process_batch`) consume streams this way to amortize per-item
/// overhead.
#[derive(Clone, Debug)]
pub struct Batched<I> {
    inner: I,
    size: usize,
}

impl<I: Iterator> Iterator for Batched<I> {
    type Item = Vec<I::Item>;

    fn next(&mut self) -> Option<Vec<I::Item>> {
        let mut batch = Vec::with_capacity(self.size);
        for item in self.inner.by_ref() {
            batch.push(item);
            if batch.len() == self.size {
                break;
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }
}

/// Chunks any stream of items (points, [`StreamItem`]s, ...) into batches
/// of at most `size` elements, preserving order.
///
/// # Panics
///
/// Panics if `size == 0`.
///
/// # Examples
///
/// ```
/// use rds_stream::batched;
///
/// let batches: Vec<Vec<u64>> = batched(0..5u64, 2).collect();
/// assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
/// ```
pub fn batched<I>(items: I, size: usize) -> Batched<I::IntoIter>
where
    I: IntoIterator,
{
    assert!(size >= 1, "batch size must be at least 1");
    Batched {
        inner: items.into_iter(),
        size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_window_never_expires() {
        let w = Window::Infinite;
        assert!(w.live(Stamp::at(0), Stamp::at(u64::MAX - 1)));
        assert!(w.len().is_none());
        assert!(w.is_infinite());
    }

    #[test]
    fn sequence_window_keeps_exactly_w_items() {
        let w = Window::Sequence(3);
        let now = Stamp::at(10);
        // live items: seq 8, 9, 10
        assert!(w.live(Stamp::at(8), now));
        assert!(w.live(Stamp::at(10), now));
        assert!(!w.live(Stamp::at(7), now));
    }

    #[test]
    fn sequence_window_of_one() {
        let w = Window::Sequence(1);
        let now = Stamp::at(5);
        assert!(w.live(Stamp::at(5), now));
        assert!(!w.live(Stamp::at(4), now));
    }

    #[test]
    fn time_window_uses_timestamps_not_sequence() {
        let w = Window::Time(5);
        let now = Stamp::new(100, 50);
        // seq is irrelevant; time 46..=50 is live
        assert!(w.live(Stamp::new(0, 46), now));
        assert!(!w.live(Stamp::new(99, 45), now));
    }

    #[test]
    fn time_window_with_bursts() {
        // several items share a timestamp; all expire together
        let w = Window::Time(2);
        let now = Stamp::new(10, 7);
        for seq in 0..5 {
            assert!(w.live(Stamp::new(seq, 6), now));
            assert!(!w.live(Stamp::new(seq, 5), now));
        }
    }

    #[test]
    fn enumerate_stream_stamps_sequentially() {
        let pts = vec![Point::origin(2), Point::new(vec![1.0, 1.0])];
        let items = enumerate_stream(pts);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].stamp, Stamp::at(0));
        assert_eq!(items[1].stamp, Stamp::at(1));
    }

    #[test]
    fn window_len_reports_parameter() {
        assert_eq!(Window::Sequence(9).len(), Some(9));
        assert_eq!(Window::Time(4).len(), Some(4));
    }

    #[test]
    fn batched_preserves_order_and_sizes() {
        let items = enumerate_stream((0..10).map(|i| Point::new(vec![i as f64])));
        let batches: Vec<Vec<StreamItem>> = batched(items, 4).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let mut seq = 0u64;
        for batch in &batches {
            for item in batch {
                assert_eq!(item.stamp.seq, seq);
                seq += 1;
            }
        }
    }

    #[test]
    fn batched_exact_multiple_has_no_empty_tail() {
        let batches: Vec<Vec<u32>> = batched(0..6u32, 3).collect();
        assert_eq!(batches, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(batched(std::iter::empty::<u32>(), 3).count(), 0);
    }

    #[test]
    fn batch_of_one_is_per_item_iteration() {
        let batches: Vec<Vec<u32>> = batched(0..3u32, 1).collect();
        assert_eq!(batches, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_size_rejected() {
        let _ = batched(0..3u32, 0);
    }
}
