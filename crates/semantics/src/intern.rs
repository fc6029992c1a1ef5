//! String interning: identifiers as small integers.
//!
//! Every identifier in a translation unit is interned once into a
//! [`Symbol`] — a `u32` index into the unit's [`Interner`] — so that the
//! parser, the resolver, and the evaluator compare and hash plain
//! integers instead of strings, and so AST nodes carry 4 bytes instead of
//! a heap-allocated `String`. The original spelling is recovered through
//! [`Interner::resolve`] only when a diagnostic is rendered.
//!
//! Keywords and the recognized library functions are pre-interned at
//! fixed indices (the `kw` module), which turns the parser's keyword
//! tests into integer comparisons. They live in a static table built at
//! compile time, so a fresh interner allocates nothing: only spellings
//! outside that table are copied, into one `String` arena indexed by a
//! hand-rolled open-addressing table keyed by an Fx-style hash.

use std::fmt;

/// An interned identifier: an index into the owning [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// The index, for table-based side lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this symbol is a C keyword of the subset (pre-interned at
    /// the front of every interner), and therefore not a valid
    /// identifier.
    pub fn is_keyword(self) -> bool {
        self.0 < kw::KEYWORD_COUNT
    }
}

/// Pre-interned symbols: keywords first, then known library functions
/// and `main`.
pub mod kw {
    use super::Symbol;

    macro_rules! preinterned {
        ($($name:ident => $text:literal),* $(,)?) => {
            preinterned!(@build 0u32; $($name => $text),*);
            /// Spellings of all pre-interned symbols, in index order.
            pub(super) const SPELLINGS: &[&str] = &[$($text),*];
        };
        (@build $idx:expr; $name:ident => $text:literal $(, $rest:ident => $rtext:literal)*) => {
            #[doc = concat!("The pre-interned symbol for `", $text, "`.")]
            pub const $name: Symbol = Symbol($idx);
            preinterned!(@build $idx + 1; $($rest => $rtext),*);
        };
        (@build $idx:expr;) => {};
    }

    preinterned! {
        INT => "int",
        VOID => "void",
        IF => "if",
        ELSE => "else",
        WHILE => "while",
        FOR => "for",
        RETURN => "return",
        BREAK => "break",
        CONTINUE => "continue",
        GOTO => "goto",
        SWITCH => "switch",
        CASE => "case",
        DEFAULT => "default",
        CONST => "const",
        VOLATILE => "volatile",
        RESTRICT => "restrict",
        STATIC => "static",
        CHAR => "char",
        SHORT => "short",
        LONG => "long",
        SIGNED => "signed",
        UNSIGNED => "unsigned",
        BOOL => "_Bool",
        SIZEOF => "sizeof",
        MALLOC => "malloc",
        FREE => "free",
        MAIN => "main",
    }

    /// Number of leading symbols that are keywords (everything up to and
    /// including `sizeof`; `malloc`/`free`/`main` are ordinary
    /// identifiers).
    pub(super) const KEYWORD_COUNT: u32 = SIZEOF.0 + 1;
}

/// Number of pre-interned symbols; arena symbols are numbered after them.
const PREINTERNED: u32 = kw::SPELLINGS.len() as u32;

/// FxHash over a byte string: eight bytes at a time, then the tail.
const fn fx_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = 0;
    let mut i = 0;
    while i + 8 <= bytes.len() {
        let w = u64::from_le_bytes([
            bytes[i],
            bytes[i + 1],
            bytes[i + 2],
            bytes[i + 3],
            bytes[i + 4],
            bytes[i + 5],
            bytes[i + 6],
            bytes[i + 7],
        ]);
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        i += 8;
    }
    while i < bytes.len() {
        h = (h.rotate_left(5) ^ bytes[i] as u64).wrapping_mul(K);
        i += 1;
    }
    h
}

/// The home slot of `hash` in a power-of-two table of `1 << bits`
/// entries: the hash's top bits, which the multiply mixes best.
const fn home(hash: u64, bits: u32) -> usize {
    (hash >> (64 - bits)) as usize
}

/// log2 of [`KW_TABLE`]'s size: at most 27 of its 64 slots are taken.
const KW_BITS: u32 = 6;

/// Open-addressing table over [`kw::SPELLINGS`], built at compile time:
/// each slot holds a pre-interned index plus one, or 0 when empty.
const KW_TABLE: [u8; 1 << KW_BITS] = {
    let mut table = [0u8; 1 << KW_BITS];
    let mut k = 0;
    while k < kw::SPELLINGS.len() {
        let mut slot = home(fx_hash(kw::SPELLINGS[k].as_bytes()), KW_BITS);
        while table[slot] != 0 {
            slot = (slot + 1) & (table.len() - 1);
        }
        table[slot] = k as u8 + 1;
        k += 1;
    }
    table
};

/// A symbol table mapping identifier spellings to [`Symbol`]s and back.
///
/// # Examples
///
/// ```
/// use cundef_semantics::intern::{kw, Interner};
///
/// let mut interner = Interner::new();
/// let x = interner.intern("x");
/// assert_eq!(interner.intern("x"), x);
/// assert_eq!(interner.resolve(x), "x");
/// assert_eq!(interner.intern("while"), kw::WHILE);
/// assert!(kw::WHILE.is_keyword());
/// assert!(!x.is_keyword());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Interner {
    /// Every spelling outside [`kw::SPELLINGS`], back to back.
    arena: String,
    /// `(start, end)` of each arena symbol's spelling in `arena`, in
    /// symbol order.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table over the arena symbols: each slot holds
    /// the spelling's 32-bit hash tag and its `spans` index plus one (0
    /// when empty). Its length is zero or a power of two, kept at most
    /// half full.
    slots: Vec<(u32, u32)>,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// Create an interner with the keywords and known library names
    /// pre-interned at their fixed [`kw`] indices. Allocates nothing.
    pub fn new() -> Interner {
        Interner {
            arena: String::new(),
            spans: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Intern `text`, returning the existing symbol if already present.
    pub fn intern(&mut self, text: &str) -> Symbol {
        let hash = fx_hash(text.as_bytes());
        let mut slot = home(hash, KW_BITS);
        loop {
            match KW_TABLE[slot] {
                0 => break,
                k if kw::SPELLINGS[k as usize - 1] == text => return Symbol(k as u32 - 1),
                _ => slot = (slot + 1) & (KW_TABLE.len() - 1),
            }
        }
        if (self.spans.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let tag = hash as u32;
        let bits = self.slots.len().trailing_zeros();
        let mut slot = home(hash, bits);
        loop {
            match self.slots[slot] {
                (_, 0) => break,
                (t, id) if t == tag && self.spelling(id - 1) == text => {
                    return Symbol(PREINTERNED + id - 1)
                }
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 identifiers");
        let start = u32::try_from(self.arena.len()).expect("identifier arena under 4 GiB");
        self.arena.push_str(text);
        self.spans.push((start, self.arena.len() as u32));
        self.slots[slot] = (tag, id);
        Symbol(PREINTERNED + id - 1)
    }

    /// Double the table and re-seat every entry. The first call sizes
    /// everything for a typical unit: 64 slots, 32 spellings, 256 bytes.
    fn grow(&mut self) {
        if self.slots.is_empty() {
            self.spans.reserve(32);
            self.arena.reserve(256);
        }
        let len = (self.slots.len() * 2).max(64);
        let bits = len.trailing_zeros();
        let mut slots = vec![(0, 0); len];
        for (k, &(start, end)) in self.spans.iter().enumerate() {
            let hash = fx_hash(&self.arena.as_bytes()[start as usize..end as usize]);
            let mut slot = home(hash, bits);
            while slots[slot].1 != 0 {
                slot = (slot + 1) & (len - 1);
            }
            slots[slot] = (hash as u32, k as u32 + 1);
        }
        self.slots = slots;
    }

    /// The spelling of arena symbol `k` (0-based among arena symbols).
    fn spelling(&self, k: u32) -> &str {
        let (start, end) = self.spans[k as usize];
        &self.arena[start as usize..end as usize]
    }

    /// The spelling of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was interned by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        match sym.0.checked_sub(PREINTERNED) {
            None => kw::SPELLINGS[sym.0 as usize],
            Some(k) => self.spelling(k),
        }
    }

    /// Number of interned symbols (including the pre-interned ones).
    pub fn len(&self) -> usize {
        PREINTERNED as usize + self.spans.len()
    }

    /// Whether the interner holds no symbols. Never true (keywords are
    /// pre-interned), provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_preinterned_at_fixed_indices() {
        let mut i = Interner::new();
        assert_eq!(i.intern("int"), kw::INT);
        assert_eq!(i.intern("goto"), kw::GOTO);
        assert_eq!(i.intern("switch"), kw::SWITCH);
        assert_eq!(i.intern("restrict"), kw::RESTRICT);
        assert_eq!(i.intern("malloc"), kw::MALLOC);
        assert_eq!(i.intern("main"), kw::MAIN);
    }

    #[test]
    fn keyword_predicate_covers_exactly_the_keywords() {
        assert!(kw::INT.is_keyword());
        assert!(kw::GOTO.is_keyword());
        assert!(kw::SWITCH.is_keyword());
        assert!(kw::CASE.is_keyword());
        assert!(kw::DEFAULT.is_keyword());
        assert!(kw::CONST.is_keyword());
        assert!(kw::STATIC.is_keyword());
        assert!(kw::UNSIGNED.is_keyword());
        assert!(kw::BOOL.is_keyword());
        assert!(kw::SIZEOF.is_keyword());
        assert!(!kw::MALLOC.is_keyword());
        assert!(!kw::FREE.is_keyword());
        assert!(!kw::MAIN.is_keyword());
    }

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
    }

    #[test]
    fn every_preinterned_spelling_maps_to_its_index() {
        let mut i = Interner::new();
        for (k, text) in kw::SPELLINGS.iter().enumerate() {
            assert_eq!(i.intern(text), Symbol(k as u32), "{text}");
            assert_eq!(i.resolve(Symbol(k as u32)), *text);
        }
        assert_eq!(i.len(), kw::SPELLINGS.len(), "keywords are never copied");
    }

    #[test]
    fn thousands_of_identifiers_round_trip_beside_the_keywords() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..5000).map(|k| format!("v{k}_{}", k * 7919)).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| i.intern(n)).collect();
        assert_eq!(i.len(), kw::SPELLINGS.len() + names.len());
        for (k, (name, sym)) in names.iter().zip(&syms).enumerate() {
            assert_eq!(
                sym.index(),
                kw::SPELLINGS.len() + k,
                "symbols number in order"
            );
            assert_eq!(i.resolve(*sym), name);
            assert_eq!(i.intern(name), *sym, "re-interning finds the same symbol");
        }
        assert_eq!(i.intern("while"), kw::WHILE);
        assert_eq!(i.intern("sizeof"), kw::SIZEOF);
        assert_eq!(i.intern("main"), kw::MAIN);
        assert_eq!(i.resolve(kw::BOOL), "_Bool");
    }

    #[test]
    fn identifiers_that_start_with_a_keyword_are_new_symbols() {
        let mut i = Interner::new();
        for text in ["integer", "_Bool1", "mainly", "in", "whil", "freed"] {
            let sym = i.intern(text);
            assert!(sym.index() >= kw::SPELLINGS.len(), "{text}");
            assert!(!sym.is_keyword(), "{text}");
            assert_eq!(i.resolve(sym), text);
        }
    }

    #[test]
    fn a_fresh_interner_is_empty_of_heap_state() {
        let i = Interner::new();
        assert_eq!(i.arena.capacity(), 0);
        assert_eq!(i.spans.capacity(), 0);
        assert_eq!(i.slots.capacity(), 0);
        assert_eq!(i.len(), kw::SPELLINGS.len());
    }
}
