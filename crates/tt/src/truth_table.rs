//! Bit-packed truth tables for Boolean functions of up to 16 variables.

use std::fmt;

/// Maximum number of variables supported by [`TruthTable`].
pub const MAX_VARS: usize = 16;

/// A truth table over `num_vars` Boolean variables, packed into 64-bit words.
///
/// Bit `i` of the table is the function value under the input assignment
/// whose binary encoding is `i` (variable 0 is the least significant bit of
/// the assignment index). Tables with fewer than 6 variables occupy a single
/// partially-used word; unused high bits are always kept zero so that
/// equality and hashing are structural.
///
/// # Example
///
/// ```
/// use mig_tt::TruthTable;
///
/// let a = TruthTable::var(0, 2);
/// let b = TruthTable::var(1, 2);
/// let and = a.and(&b);
/// assert_eq!(and.get_bit(0b11), true);
/// assert_eq!(and.get_bit(0b01), false);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

fn word_count(num_vars: usize) -> usize {
    if num_vars <= 6 {
        1
    } else {
        1 << (num_vars - 6)
    }
}

fn word_mask(num_vars: usize) -> u64 {
    if num_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << num_vars)) - 1
    }
}

/// Per-word pattern of variable `v` for `v < 6`.
const VAR_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl TruthTable {
    /// Creates the constant-0 function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 16`.
    pub fn zeros(num_vars: usize) -> Self {
        assert!(
            num_vars <= MAX_VARS,
            "truth table limited to {MAX_VARS} vars"
        );
        TruthTable {
            num_vars,
            words: vec![0; word_count(num_vars)],
        }
    }

    /// Creates the constant-1 function over `num_vars` variables.
    pub fn ones(num_vars: usize) -> Self {
        let mut t = Self::zeros(num_vars);
        let mask = word_mask(num_vars);
        for w in &mut t.words {
            *w = mask;
        }
        t
    }

    /// Creates the projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars` or `num_vars > 16`.
    pub fn var(var: usize, num_vars: usize) -> Self {
        assert!(var < num_vars, "var {var} out of range for {num_vars} vars");
        let mut t = Self::zeros(num_vars);
        if var < 6 {
            let mask = word_mask(num_vars);
            for w in &mut t.words {
                *w = VAR_PATTERNS[var] & mask;
            }
        } else {
            let stride = 1usize << (var - 6);
            for (i, w) in t.words.iter_mut().enumerate() {
                if (i / stride) % 2 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        t
    }

    /// Builds a ≤ 6-variable table from a single word.
    pub fn from_u64(num_vars: usize, bits: u64) -> Self {
        assert!(num_vars <= 6);
        let mut t = TruthTable {
            num_vars,
            words: vec![bits],
        };
        t.mask_off();
        t
    }

    /// The packed words of this table.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// For ≤ 6-variable tables, the single packed word.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than 6 variables.
    pub fn as_u64(&self) -> u64 {
        assert!(self.num_vars <= 6, "as_u64 requires <= 6 vars");
        self.words[0]
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of rows (`2^num_vars`).
    pub fn num_bits(&self) -> usize {
        1 << self.num_vars
    }

    fn mask_off(&mut self) {
        let mask = word_mask(self.num_vars);
        if let Some(last) = self.words.last_mut() {
            *last &= mask;
        }
        if self.num_vars < 6 {
            for w in &mut self.words {
                *w &= mask;
            }
        }
    }

    /// Function value for input assignment `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_vars`.
    pub fn get_bit(&self, index: usize) -> bool {
        assert!(index < self.num_bits(), "row index out of range");
        (self.words[index >> 6] >> (index & 63)) & 1 == 1
    }

    /// Sets the function value for input assignment `index`.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        assert!(index < self.num_bits(), "row index out of range");
        let w = &mut self.words[index >> 6];
        if value {
            *w |= 1 << (index & 63);
        } else {
            *w &= !(1 << (index & 63));
        }
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True if the function is constant 0.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if the function is constant 1.
    pub fn is_one(&self) -> bool {
        *self == Self::ones(self.num_vars)
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.num_vars, other.num_vars, "var count mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut t = TruthTable {
            num_vars: self.num_vars,
            words,
        };
        t.mask_off();
        t
    }

    /// Bitwise complement (logical NOT).
    pub fn not(&self) -> Self {
        let words = self.words.iter().map(|&w| !w).collect();
        let mut t = TruthTable {
            num_vars: self.num_vars,
            words,
        };
        t.mask_off();
        t
    }

    /// Logical AND.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Logical OR.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Logical XOR.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    /// Three-input majority `ab + ac + bc`.
    pub fn maj(a: &Self, b: &Self, c: &Self) -> Self {
        a.and(b).or(&a.and(c)).or(&b.and(c))
    }

    /// If-then-else `sel ? t : e`.
    pub fn mux(sel: &Self, t: &Self, e: &Self) -> Self {
        sel.and(t).or(&sel.not().and(e))
    }

    /// Positive cofactor: the function with `var` fixed to 1.
    ///
    /// The result keeps the same variable count; it simply no longer depends
    /// on `var`.
    pub fn cofactor1(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut t = self.clone();
        if var < 6 {
            let shift = 1u32 << var;
            let pat = VAR_PATTERNS[var];
            for w in &mut t.words {
                let hi = *w & pat;
                *w = hi | (hi >> shift);
            }
        } else {
            let stride = 1usize << (var - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..stride {
                    t.words[i + j] = t.words[i + stride + j];
                }
                i += 2 * stride;
            }
        }
        t.mask_off();
        t
    }

    /// Negative cofactor: the function with `var` fixed to 0.
    pub fn cofactor0(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut t = self.clone();
        if var < 6 {
            let shift = 1u32 << var;
            let pat = !VAR_PATTERNS[var];
            for w in &mut t.words {
                let lo = *w & pat;
                *w = lo | (lo << shift);
            }
        } else {
            let stride = 1usize << (var - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..stride {
                    t.words[i + stride + j] = t.words[i + j];
                }
                i += 2 * stride;
            }
        }
        t.mask_off();
        t
    }

    /// True if the function depends on `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor0(var) != self.cofactor1(var)
    }

    /// The set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Returns the function with its variables renamed: new variable `i`
    /// takes the role of old variable `perm[i]`.
    ///
    /// `perm` must be a permutation of `0..num_vars`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.num_vars);
        let mut t = Self::zeros(self.num_vars);
        for i in 0..self.num_bits() {
            // Build the old index corresponding to new index i.
            let mut old = 0usize;
            for (new_var, &old_var) in perm.iter().enumerate() {
                if (i >> new_var) & 1 == 1 {
                    old |= 1 << old_var;
                }
            }
            if self.get_bit(old) {
                t.set_bit(i, true);
            }
        }
        t
    }

    /// Returns the function with variable `var` complemented.
    pub fn flip_var(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut t = self.clone();
        if var < 6 {
            let shift = 1u32 << var;
            let pat = VAR_PATTERNS[var];
            for w in &mut t.words {
                *w = ((*w & pat) >> shift) | ((*w & !pat) << shift);
            }
        } else {
            let stride = 1usize << (var - 6);
            let n = t.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..stride {
                    t.words.swap(i + j, i + stride + j);
                }
                i += 2 * stride;
            }
        }
        t.mask_off();
        t
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({}v, {})", self.num_vars, self)
    }
}

impl fmt::Display for TruthTable {
    /// Hex dump, most significant word first, as in standard synthesis tools.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = (self.num_bits().max(4)) / 4;
        let per_word = 16;
        let mut s = String::new();
        for w in self.words.iter().rev() {
            s.push_str(&format!("{w:016x}"));
        }
        // Keep only the needed trailing digits.
        let keep = digits.min(self.words.len() * per_word);
        write!(f, "0x{}", &s[s.len() - keep..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert!(TruthTable::zeros(3).is_zero());
        assert!(TruthTable::ones(3).is_one());
        assert_eq!(TruthTable::ones(3).count_ones(), 8);
        assert_eq!(TruthTable::ones(8).count_ones(), 256);
    }

    #[test]
    fn var_projection_small() {
        for n in 1..=6 {
            for v in 0..n {
                let t = TruthTable::var(v, n);
                for i in 0..t.num_bits() {
                    assert_eq!(t.get_bit(i), (i >> v) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn var_projection_large() {
        let t = TruthTable::var(7, 8);
        for i in 0..256 {
            assert_eq!(t.get_bit(i), (i >> 7) & 1 == 1);
        }
    }

    #[test]
    fn boolean_ops() {
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        assert_eq!(a.and(&b).as_u64(), 0b1000);
        assert_eq!(a.or(&b).as_u64(), 0b1110);
        assert_eq!(a.xor(&b).as_u64(), 0b0110);
        assert_eq!(a.not().as_u64(), 0b0101);
    }

    #[test]
    fn majority_table() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let m = TruthTable::maj(&a, &b, &c);
        // MAJ3 = 0xE8
        assert_eq!(m.as_u64(), 0xE8);
    }

    #[test]
    fn mux_table() {
        let s = TruthTable::var(2, 3);
        let t = TruthTable::var(1, 3);
        let e = TruthTable::var(0, 3);
        let m = TruthTable::mux(&s, &t, &e);
        for i in 0..8 {
            let (sv, tv, ev) = ((i >> 2) & 1 == 1, (i >> 1) & 1 == 1, i & 1 == 1);
            assert_eq!(m.get_bit(i), if sv { tv } else { ev });
        }
    }

    #[test]
    fn cofactors_small() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let f = a.and(&b);
        assert_eq!(f.cofactor1(0), b);
        assert!(f.cofactor0(0).is_zero());
        assert_eq!(f.cofactor1(1), a);
    }

    #[test]
    fn cofactors_large() {
        let a = TruthTable::var(7, 8);
        let b = TruthTable::var(0, 8);
        let f = a.xor(&b);
        assert_eq!(f.cofactor1(7), b.not());
        assert_eq!(f.cofactor0(7), b);
    }

    #[test]
    fn support_and_dependency() {
        let a = TruthTable::var(0, 4);
        let c = TruthTable::var(2, 4);
        let f = a.or(&c);
        assert_eq!(f.support(), vec![0, 2]);
        assert!(!f.depends_on(1));
        assert!(!f.depends_on(3));
    }

    #[test]
    fn permute_roundtrip() {
        let a = TruthTable::var(0, 3);
        let f = a.and(&TruthTable::var(2, 3));
        let g = f.permute(&[2, 1, 0]);
        // New var 0 takes role of old var 2: g = var2&var0 again (symmetric).
        assert_eq!(g, f);
        let h = TruthTable::var(1, 3).permute(&[1, 0, 2]);
        assert_eq!(h, TruthTable::var(0, 3));
    }

    #[test]
    fn flip_var_small_and_large() {
        let a = TruthTable::var(0, 3);
        assert_eq!(a.flip_var(0), a.not());
        let b = TruthTable::var(6, 7);
        assert_eq!(b.flip_var(6), b.not());
        let f = TruthTable::var(0, 7).and(&b);
        assert_eq!(f.flip_var(6), TruthTable::var(0, 7).and(&b.not()));
    }

    #[test]
    fn display_hex() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        assert_eq!(format!("{}", TruthTable::maj(&a, &b, &c)), "0xe8");
    }

    #[test]
    #[should_panic(expected = "row index out of range")]
    fn get_bit_bounds() {
        TruthTable::zeros(2).get_bit(4);
    }
}
