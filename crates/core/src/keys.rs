//! Order-preserving key encoding for secondary indexes (§5.1).
//!
//! Index B-Trees compare keys as byte strings, so typed keys must encode
//! such that byte order equals value order: integers are sign-flipped and
//! big-endian; strings are padded to a fixed width per column (all TPC-C
//! string keys are bounded). Non-unique indexes append the row id, making
//! every stored key unique while preserving user-key grouping.

use phoebe_common::ids::RowId;
use phoebe_storage::schema::Value;

/// Incremental builder for composite index keys.
#[derive(Default, Debug, Clone)]
pub struct KeyBuilder {
    buf: Vec<u8>,
}

impl KeyBuilder {
    pub fn new() -> Self {
        KeyBuilder { buf: Vec::with_capacity(32) }
    }

    pub fn push_i64(&mut self, v: i64) -> &mut Self {
        // Flip the sign bit: negative values sort below positive ones.
        self.buf.extend_from_slice(&((v as u64) ^ (1 << 63)).to_be_bytes());
        self
    }

    pub fn push_i32(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&((v as u32) ^ (1 << 31)).to_be_bytes());
        self
    }

    /// Fixed-width string segment: `s` truncated/zero-padded to `width`.
    /// Zero padding preserves order because index strings are compared
    /// within the same fixed-width segment.
    pub fn push_str_padded(&mut self, s: &str, width: usize) -> &mut Self {
        let bytes = s.as_bytes();
        let n = bytes.len().min(width);
        self.buf.extend_from_slice(&bytes[..n]);
        self.buf.extend(std::iter::repeat_n(0u8, width - n));
        self
    }

    /// Row-id suffix for non-unique indexes.
    pub fn push_row_id(&mut self, row: RowId) -> &mut Self {
        self.buf.extend_from_slice(&row.raw().to_be_bytes());
        self
    }

    /// Append a value per its type (strings use `width`).
    pub fn push_value(&mut self, v: &Value, width: usize) -> &mut Self {
        match v {
            Value::I64(x) => self.push_i64(*x),
            Value::I32(x) => self.push_i32(*x),
            Value::F64(x) => {
                // Order-preserving f64: flip sign bit for positives, all
                // bits for negatives (standard total-order trick).
                let bits = x.to_bits();
                let ordered = if bits >> 63 == 0 { bits ^ (1 << 63) } else { !bits };
                self.buf.extend_from_slice(&ordered.to_be_bytes());
                self
            }
            Value::Str(s) => self.push_str_padded(s, width),
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Width of a string column segment in index keys.
pub const DEFAULT_STR_KEY_WIDTH: usize = 16;

/// The smallest possible row-id suffix (range-scan lower bound).
pub const ROW_ID_MIN: [u8; 8] = [0; 8];

/// The largest possible row-id suffix (range-scan upper bound).
pub const ROW_ID_MAX: [u8; 8] = [0xff; 8];

#[cfg(test)]
mod tests {
    use super::*;

    fn k(f: impl FnOnce(&mut KeyBuilder)) -> Vec<u8> {
        let mut b = KeyBuilder::new();
        f(&mut b);
        b.finish()
    }

    #[test]
    fn i64_order_is_preserved() {
        let values = [i64::MIN, -100, -1, 0, 1, 100, i64::MAX];
        let keys: Vec<_> = values
            .iter()
            .map(|&v| {
                k(|b| {
                    b.push_i64(v);
                })
            })
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn i32_order_is_preserved() {
        let values = [i32::MIN, -5, 0, 7, i32::MAX];
        let keys: Vec<_> = values
            .iter()
            .map(|&v| {
                k(|b| {
                    b.push_i32(v);
                })
            })
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn f64_order_is_preserved() {
        let values = [-1e9, -1.5, -0.0, 0.0, 2.5, 1e18];
        let keys: Vec<_> = values
            .iter()
            .map(|&v| {
                k(|b| {
                    b.push_value(&Value::F64(v), 0);
                })
            })
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn padded_strings_sort_like_strings() {
        let values = ["", "ABLE", "BAR", "BARBAR", "OUGHT"];
        let keys: Vec<_> = values
            .iter()
            .map(|v| {
                k(|b| {
                    b.push_str_padded(v, 16);
                })
            })
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(keys.iter().all(|key| key.len() == 16));
    }

    #[test]
    fn composite_keys_group_by_prefix() {
        let a = k(|b| {
            b.push_i32(1).push_str_padded("SMITH", 16).push_row_id(RowId(5));
        });
        let b_ = k(|b| {
            b.push_i32(1).push_str_padded("SMITH", 16).push_row_id(RowId(9));
        });
        let c = k(|b| {
            b.push_i32(2).push_str_padded("AAAA", 16).push_row_id(RowId(1));
        });
        assert!(a < b_, "same prefix ordered by row id");
        assert!(b_ < c, "warehouse dominates");
        assert!(a.starts_with(&a[..20]) && b_.starts_with(&a[..20]));
    }

    #[test]
    fn tpcc_widest_key_fits_inline() {
        // (w i32)(d i32)(last 16)(first 16)(row id 8) = 48 <= KEY_CAP.
        let key = k(|b| {
            b.push_i32(1)
                .push_i32(10)
                .push_str_padded("OUGHTCALLYATION", 16)
                .push_str_padded("firstname0123456", 16)
                .push_row_id(RowId(u64::MAX));
        });
        assert!(key.len() <= phoebe_storage::node::KEY_CAP);
    }
}
