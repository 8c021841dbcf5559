//! Inline small-key buffer for B-tree descents and range scans.
//!
//! Separator/fence keys are short — 8 bytes for table trees (big-endian
//! row ids), the index's key width (at most `node::KEY_CAP`, in TPC-C at
//! most 48) for index trees — but the descent
//! used to copy each one into a fresh `Vec<u8>`, one heap allocation per
//! inner hop per restart. [`SmallKey`] keeps keys up to [`INLINE_LEN`]
//! bytes on the stack and only spills longer ones to the heap, so the
//! common descent allocates nothing.

/// Keys at or below this length are stored inline (covers every table key
/// and the typical composite index prefix).
pub const INLINE_LEN: usize = 24;

/// A byte key with inline storage for short keys.
#[derive(Clone)]
pub enum SmallKey {
    Inline { len: u8, buf: [u8; INLINE_LEN] },
    Heap(Vec<u8>),
}

impl SmallKey {
    /// Copy `key` in, inline when it fits.
    #[inline]
    pub fn from_slice(key: &[u8]) -> SmallKey {
        if key.len() <= INLINE_LEN {
            let mut buf = [0u8; INLINE_LEN];
            buf[..key.len()].copy_from_slice(key);
            SmallKey::Inline { len: key.len() as u8, buf }
        } else {
            SmallKey::Heap(key.to_vec())
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            SmallKey::Inline { len, buf } => &buf[..*len as usize],
            SmallKey::Heap(v) => v,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for SmallKey {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for SmallKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SmallKey({:02x?})", self.as_slice())
    }
}

impl PartialEq for SmallKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SmallKey {}

impl From<&[u8]> for SmallKey {
    fn from(key: &[u8]) -> SmallKey {
        SmallKey::from_slice(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_keys_stay_inline() {
        let k = SmallKey::from_slice(b"12345678");
        assert!(matches!(k, SmallKey::Inline { .. }));
        assert_eq!(k.as_slice(), b"12345678");
        assert_eq!(k.len(), 8);
    }

    #[test]
    fn boundary_and_spill() {
        let at = vec![7u8; INLINE_LEN];
        let k = SmallKey::from_slice(&at);
        assert!(matches!(k, SmallKey::Inline { .. }));
        assert_eq!(k.as_slice(), &at[..]);

        let over = vec![9u8; INLINE_LEN + 1];
        let k = SmallKey::from_slice(&over);
        assert!(matches!(k, SmallKey::Heap(_)));
        assert_eq!(k.as_slice(), &over[..]);
    }

    #[test]
    fn empty_and_ordering_through_slices() {
        let e = SmallKey::from_slice(b"");
        assert!(e.is_empty());
        let a = SmallKey::from_slice(b"a");
        let b = SmallKey::from_slice(b"b");
        assert!(a.as_slice() < b.as_slice());
        assert_eq!(a, SmallKey::from_slice(b"a"));
    }
}
