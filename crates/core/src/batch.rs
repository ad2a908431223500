//! Row-major volley batches: many volleys of one width in one array.
//!
//! A volley is a bounded vector of spike times (§ III.A), so a batch of
//! volleys that all cross the same `n` lines is a dense `rows × n` matrix.
//! [`VolleyBatch`] stores exactly that: one contiguous `Vec<Time>`, row
//! `i` at `times[i * width..(i + 1) * width]`. Every engine reads its
//! inputs from one and writes its outputs into another, so a batch is
//! parsed, evaluated and written without a heap allocation per volley.
//!
//! The width is fixed when the batch is made and every row is checked
//! against it once, there. The batch also records the largest finite
//! time it holds, which is what the SWAR kernel's lane bound is checked
//! against — in O(1), not once per spike.
//!
//! ```
//! use st_core::{Time, VolleyBatch};
//!
//! let batch = VolleyBatch::parse("3 1 inf\n# comment\n0 ∞ 2\n", "volleys.txt", 3)?;
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch.row(1), &[Time::ZERO, Time::INFINITY, Time::finite(2)]);
//! assert_eq!(batch.max_finite(), Some(3));
//!
//! let mut text = Vec::new();
//! batch.write_text(&mut text);
//! assert_eq!(String::from_utf8_lossy(&text), "[3, 1, ∞]\n[0, ∞, 2]\n");
//! # Ok::<(), st_core::ParseVolleysError>(())
//! ```

use core::fmt;
use core::ops::Range;

use crate::error::CoreError;
use crate::time::{ParseTimeError, Time};
use crate::volley::Volley;

/// A batch of same-width volleys in one row-major array.
///
/// **Layout.** `len()` rows of `width()` times each, row `i` at
/// `times()[i * width..(i + 1) * width]`.
///
/// **Contract, checked once at construction.** Every row has exactly
/// `width` times: [`VolleyBatch::push_row`] and [`VolleyBatch::parse`]
/// reject any other row, so code reading a batch never re-checks a
/// row's width. [`VolleyBatch::max_finite`] bounds every finite time in
/// the batch, so a lane-bound check (finite times `<= 254` for the u8
/// lanes of [`crate::lane`]) is one comparison for the whole batch.
#[derive(Debug, Clone, Default)]
pub struct VolleyBatch {
    width: usize,
    len: usize,
    times: Vec<Time>,
    /// The largest finite time, or `None` when every time is `∞`. After
    /// [`VolleyBatch::times_mut`] this is a conservative upper bound until
    /// [`VolleyBatch::refresh_max`] makes it exact again.
    max_finite: Option<u64>,
}

impl VolleyBatch {
    /// An empty batch whose rows will be `width` times wide.
    #[must_use]
    pub fn new(width: usize) -> VolleyBatch {
        VolleyBatch {
            width,
            ..VolleyBatch::default()
        }
    }

    /// A batch of `len` rows with `at(row, line)` at each position,
    /// filled row by row, line by line.
    #[must_use]
    pub fn from_fn(
        width: usize,
        len: usize,
        mut at: impl FnMut(usize, usize) -> Time,
    ) -> VolleyBatch {
        let mut times = Vec::with_capacity(width * len);
        for row in 0..len {
            times.extend((0..width).map(|line| at(row, line)));
        }
        let mut batch = VolleyBatch {
            width,
            len,
            times,
            max_finite: None,
        };
        batch.refresh_max();
        batch
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// [`CoreError::ArityMismatch`] if `row` is not [`VolleyBatch::width`]
    /// times wide; the batch is left unchanged.
    pub fn push_row(&mut self, row: &[Time]) -> Result<(), CoreError> {
        if row.len() != self.width {
            return Err(CoreError::ArityMismatch {
                expected: self.width,
                actual: row.len(),
            });
        }
        self.times.extend_from_slice(row);
        self.len += 1;
        if let Some(max) = row.iter().filter_map(|t| t.value()).max() {
            self.max_finite = Some(self.max_finite.map_or(max, |m| m.max(max)));
        }
        Ok(())
    }

    /// Makes this batch `len` all-silent rows of `width`, reusing its
    /// allocation — the preallocated output of a batch evaluation.
    pub fn reset(&mut self, width: usize, len: usize) {
        self.width = width;
        self.len = len;
        self.times.clear();
        self.times.resize(width * len, Time::INFINITY);
        self.max_finite = None;
    }

    /// The number of times in every row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of rows (volleys).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An upper bound on every finite time in the batch (`None`: there
    /// is none). Exact after construction, parsing, [`VolleyBatch::push_row`]
    /// and [`VolleyBatch::refresh_max`].
    #[must_use]
    pub fn max_finite(&self) -> Option<u64> {
        self.max_finite
    }

    /// All times, row after row.
    #[must_use]
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// Mutable access to all times, row after row. Writes may raise the
    /// largest finite time, so [`VolleyBatch::max_finite`] falls back to
    /// the largest finite [`Time`] until [`VolleyBatch::refresh_max`].
    pub fn times_mut(&mut self) -> &mut [Time] {
        self.max_finite = Some(u64::MAX - 1);
        &mut self.times
    }

    /// Recomputes [`VolleyBatch::max_finite`] exactly, in one pass.
    pub fn refresh_max(&mut self) {
        self.max_finite = self.times.iter().filter_map(|t| t.value()).max();
    }

    /// Row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn row(&self, index: usize) -> &[Time] {
        self.row_range(index..index + 1)
    }

    /// The consecutive rows `rows`, as one row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if the range is not within `0..len()`.
    #[must_use]
    pub fn row_range(&self, rows: Range<usize>) -> &[Time] {
        assert!(rows.end <= self.len, "rows {rows:?} out of 0..{}", self.len);
        &self.times[rows.start * self.width..rows.end * self.width]
    }

    /// Every row, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Time]> + '_ {
        let width = self.width;
        (0..self.len).map(move |i| &self.times[i * width..(i + 1) * width])
    }

    /// One [`Volley`] per row.
    #[must_use]
    pub fn to_volleys(&self) -> Vec<Volley> {
        self.rows().map(|row| Volley::new(row.to_vec())).collect()
    }

    /// Appends every row to `out` as it displays as a [`Volley`] — `[3,
    /// ∞, 0]` — one per line. Integers and `∞` are written straight into
    /// the buffer, without `fmt`.
    pub fn write_text(&self, out: &mut Vec<u8>) {
        // Two bytes per time plus brackets is a floor for small times.
        out.reserve(self.times.len() * 4 + self.len * 3);
        for row in self.rows() {
            out.push(b'[');
            for (i, t) in row.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                match t.value() {
                    Some(v) => write_decimal(out, v),
                    None => out.extend_from_slice("∞".as_bytes()),
                }
            }
            out.extend_from_slice(b"]\n");
        }
    }

    /// Parses a volley file: one volley per line, times separated by
    /// whitespace, `#` to the end of a line a comment, blank lines
    /// skipped. A time is a decimal tick count or `inf`/`infinity`
    /// (any case) or `∞` for "no spike" — exactly [`Time`]'s `FromStr`.
    ///
    /// Lines are scanned byte by byte: ASCII whitespace, 1- to 19-digit
    /// decimals, `inf` and `infinity` are read in place. A line holding
    /// anything else — a non-ASCII byte, a sign, a longer number, a bad
    /// token — is read again through `str::split_whitespace` and
    /// `Time::from_str`, so Unicode whitespace, `∞` and every error
    /// message are those of the string path.
    ///
    /// # Errors
    ///
    /// [`ParseVolleysError::Literal`] for the first token that is not a
    /// time, anywhere in the file; otherwise
    /// [`ParseVolleysError::Ragged`] for the first volley that is not
    /// `width` times wide.
    pub fn parse(text: &str, path: &str, width: usize) -> Result<VolleyBatch, ParseVolleysError> {
        let bytes = text.as_bytes();
        let mut batch = VolleyBatch::new(width);
        let mut ragged: Option<(usize, usize)> = None;
        let mut volleys = 0usize;
        let mut at = 0;
        let mut lineno = 0;
        while at < bytes.len() {
            lineno += 1;
            let start = batch.times.len();
            let end = match scan_line(bytes, at, &mut batch.times) {
                Some(end) => end,
                None => {
                    batch.times.truncate(start);
                    let end = line_end(bytes, at);
                    let line = text.get(at..end).unwrap_or_default();
                    let body = line.split('#').next().unwrap_or_default();
                    for token in body.split_whitespace() {
                        let time = token.parse().map_err(|source| ParseVolleysError::Literal {
                            path: path.to_owned(),
                            line: lineno,
                            source,
                        })?;
                        batch.times.push(time);
                    }
                    end
                }
            };
            at = end + 1;
            let count = batch.times.len() - start;
            if count == 0 {
                continue;
            }
            if count == width {
                batch.len += 1;
            } else {
                // Keep reading: a bad literal later in the file still
                // outranks a ragged row.
                ragged.get_or_insert((volleys, count));
                batch.times.truncate(start);
            }
            volleys += 1;
        }
        if let Some((index, actual)) = ragged {
            return Err(ParseVolleysError::Ragged {
                path: path.to_owned(),
                index,
                source: CoreError::ArityMismatch {
                    expected: width,
                    actual,
                },
            });
        }
        batch.refresh_max();
        Ok(batch)
    }
}

impl PartialEq for VolleyBatch {
    /// Equal when the rows are: the recorded maximum is derived from them.
    fn eq(&self, other: &VolleyBatch) -> bool {
        self.width == other.width && self.len == other.len && self.times == other.times
    }
}

impl Eq for VolleyBatch {}

/// Reads the line starting at `at` onto `times` if it holds only ASCII
/// whitespace, 1- to 19-digit decimals (which always fit a finite time),
/// `inf`/`infinity` in any case, and a `#` comment. Returns the index of
/// the line's `\n` (or the text's end), or `None` for any other line.
fn scan_line(bytes: &[u8], mut i: usize, times: &mut Vec<Time>) -> Option<usize> {
    // The whitespace `char::is_whitespace` accepts within ASCII: tab,
    // line feed, vertical tab, form feed, carriage return and space.
    let ends_token =
        |next: Option<&u8>| next.is_none_or(|&b| matches!(b, b'\t'..=b'\r' | b' ' | b'#'));
    while let Some(&b) = bytes.get(i) {
        match b {
            b'0'..=b'9' => {
                let token = i;
                let mut ticks = 0u64;
                while let Some(&digit @ b'0'..=b'9') = bytes.get(i) {
                    ticks = ticks.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
                    i += 1;
                }
                if i - token > 19 || !ends_token(bytes.get(i)) {
                    return None;
                }
                times.push(Time::finite(ticks));
            }
            b'i' | b'I' => {
                let token = i;
                while bytes.get(i).is_some_and(u8::is_ascii_alphabetic) {
                    i += 1;
                }
                let word = &bytes[token..i];
                let infinite =
                    word.eq_ignore_ascii_case(b"inf") || word.eq_ignore_ascii_case(b"infinity");
                if !infinite || !ends_token(bytes.get(i)) {
                    return None;
                }
                times.push(Time::INFINITY);
            }
            b'\n' => return Some(i),
            b'\t' | 0x0b | 0x0c | b'\r' | b' ' => i += 1,
            b'#' => return Some(line_end(bytes, i)),
            _ => return None,
        }
    }
    Some(bytes.len())
}

/// The index of the first `\n` at or after `at`, or the text's end.
fn line_end(bytes: &[u8], at: usize) -> usize {
    bytes[at..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| at + p)
}

/// Appends `v` in decimal.
fn write_decimal(out: &mut Vec<u8>, mut v: u64) {
    if v < 10 {
        out.push(b'0' + v as u8);
        return;
    }
    if v < 100 {
        out.extend_from_slice(&[b'0' + (v / 10) as u8, b'0' + (v % 10) as u8]);
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v > 0 {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend_from_slice(&digits[at..]);
}

/// A failed row within a batch: the lowest-index row an engine rejected.
///
/// Batch engines stop at, or after parallel workers race past, several
/// bad rows; every one of them reports the **lowest-index** failure, so
/// the error is reproducible across thread counts and pack sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Index of the offending volley within the input batch.
    pub index: usize,
    /// What went wrong with it.
    pub source: CoreError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "volley {} failed: {:?}", self.index, self.source)
    }
}

impl std::error::Error for BatchError {}

/// Why a volley file did not parse into a [`VolleyBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseVolleysError {
    /// A token that is not a time literal.
    Literal {
        /// The file, as named by the caller.
        path: String,
        /// The 1-based line.
        line: usize,
        /// The token's error.
        source: ParseTimeError,
    },
    /// The first volley whose width is not the batch's.
    Ragged {
        /// The file, as named by the caller.
        path: String,
        /// The volley's 0-based index among the file's volleys (blank and
        /// comment lines do not count).
        index: usize,
        /// A [`CoreError::ArityMismatch`] against the batch width.
        source: CoreError,
    },
}

impl fmt::Display for ParseVolleysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseVolleysError::Literal { path, line, source } => {
                write!(f, "{path}:{line}: {source}")
            }
            ParseVolleysError::Ragged {
                path,
                index,
                source,
            } => write!(f, "{path}: volley {index} failed: {source:?}"),
        }
    }
}

impl std::error::Error for ParseVolleysError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    #[test]
    fn the_lowest_ragged_volley_is_reported() {
        let err = VolleyBatch::parse("# c\n0 1\n\n1 2 3\n4\n", "f", 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "f: volley 1 failed: ArityMismatch { expected: 2, actual: 3 }"
        );
    }

    #[test]
    fn push_row_checks_width_and_tracks_the_maximum() {
        let mut batch = VolleyBatch::new(2);
        assert_eq!(batch.max_finite(), None);
        batch.push_row(&[t(3), Time::INFINITY]).unwrap();
        batch.push_row(&[t(1), t(7)]).unwrap();
        assert_eq!(
            batch.push_row(&[t(1)]),
            Err(CoreError::ArityMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.row(1), &[t(1), t(7)]);
        assert_eq!(batch.max_finite(), Some(7));
        batch.times_mut()[0] = t(300);
        assert!(batch.max_finite() >= Some(300));
        batch.refresh_max();
        assert_eq!(batch.max_finite(), Some(300));
    }

    #[test]
    fn zero_width_rows_are_counted() {
        let mut batch = VolleyBatch::default();
        batch.reset(0, 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.rows().count(), 3);
        let mut text = Vec::new();
        batch.write_text(&mut text);
        assert_eq!(text, b"[]\n[]\n[]\n");
    }
}
