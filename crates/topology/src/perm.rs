//! Ranking and unranking of permutations and k-permutations.
//!
//! The permutation-based families (star, (n,k)-star, pancake, arrangement
//! graphs) number their nodes by the lexicographic rank of the defining
//! (partial) permutation, so adjacency can be computed arithmetically
//! without materialising the graph.
//!
//! Symbols are `1..=n` (matching the combinatorics literature). Every
//! family constructor caps `n` at [`MAX_N`], 12, and `12! < 2³²`, so every
//! rank, Lehmer digit and digit weight fits a `u32`; the core asserts that
//! bound where it builds its weight table.
//!
//! The core is allocation-free. Position `i` of a k-permutation has the
//! Lehmer digit `d_i` — how many symbols below `p_i` are not among
//! `p_0..p_{i−1}` — and the weight `(n−1−i)!/(n−k)!`, and the rank is
//! `Σ d_i·weight_i`:
//!
//! * **Unrank** divides the rank by one weight per position and takes the
//!   `d_i`-th still-unplaced symbol. The unplaced symbols sit ascending in
//!   the 4-bit nibbles of one `u64`, so taking one is two shifts and no
//!   branch. The unrank also keeps each prefix's share of the rank.
//! * **Rank** keeps the placed symbols as a bitmask, so a digit is one
//!   popcount of the unplaced symbols below `p_i`, times its weight.
//! * **Neighbour ranks are deltas.** A move changes only some digits, and
//!   only those are ranked again:
//!   - swapping positions `0` and `i` (star, (n,k)-star) leaves every
//!     later position with the same set of earlier symbols, so only digits
//!     `0..=i` change;
//!   - reversing a prefix of length `l` (pancake) changes digits `0..l`;
//!   - replacing the symbol at position `i` ((n,k)-star, arrangement)
//!     changes digits from `i` on.
//!
//! A neighbour thus costs one popcount digit per changed position, and a
//! node one unrank plus those digits: about `n²/2` digit steps for `S_n`
//! and `P_n`, and `k(k+1)(n−k)/2` for `A_{n,k}`, against the `O(n²)` per
//! neighbour of ranking each one in full. Nothing touches the heap.

/// Maximum supported symbol-set size. `12! < 2³²` keeps every rank in a
/// `u32`, and every symbol fits one nibble of the unrank's word.
pub const MAX_N: usize = 12;

/// `n!` as usize (n ≤ 20 on 64-bit).
pub fn factorial(n: usize) -> usize {
    (1..=n).product::<usize>().max(1)
}

/// Falling factorial `n·(n−1)·…·(n−k+1)` — the number of k-permutations of
/// an n-set.
pub fn falling_factorial(n: usize, k: usize) -> usize {
    assert!(k <= n, "falling_factorial: k={k} > n={n}");
    ((n - k + 1)..=n).product::<usize>().max(1)
}

/// Lexicographic rank of a k-permutation of symbols `1..=n`.
///
/// `perm` must contain `k` distinct values in `1..=n`, and `n ≤ MAX_N`.
/// Ranks run `0..falling_factorial(n, k)` and order k-permutations
/// lexicographically by their symbol sequence.
pub fn rank_kperm(perm: &[u8], n: usize) -> usize {
    KPerms::new(n, perm.len()).rank(perm)
}

/// Inverse of [`rank_kperm`]: write the k-permutation with the given rank
/// into `out` (resized to length `k`).
pub fn unrank_kperm(rank: usize, n: usize, k: usize, out: &mut Vec<u8>) {
    let p = KPerms::new(n, k).unrank(rank);
    out.clear();
    out.extend_from_slice(p.symbols());
}

/// Rank of a full permutation of `1..=n` (equivalent to
/// `rank_kperm(perm, n)` with `k = n`).
pub fn rank_perm(perm: &[u8], n: usize) -> usize {
    assert_eq!(perm.len(), n);
    rank_kperm(perm, n)
}

/// Inverse of [`rank_perm`].
pub fn unrank_perm(rank: usize, n: usize, out: &mut Vec<u8>) {
    unrank_kperm(rank, n, n, out)
}

/// The lexicographic numbering of the k-permutations of `1..=n`: the
/// weight table the (un)ranking and the rank deltas share.
#[derive(Clone, Debug)]
pub(crate) struct KPerms {
    n: usize,
    k: usize,
    /// `falling_factorial(n, k)`, the number of ranks.
    count: u32,
    /// `weight[i] = falling_factorial(n−1−i, k−1−i)`: what one unit of
    /// Lehmer digit `i` adds to a rank.
    weight: [u32; MAX_N],
}

/// One k-permutation unranked onto the stack, with what the rank deltas
/// need: each prefix's share of the rank and each prefix's symbol set.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KPerm {
    len: usize,
    /// Symbols by position; `sym[..len]` is the permutation.
    sym: [u8; MAX_N],
    /// `prefix[i]`: the rank digits `0..i` contribute; `prefix[len]` is
    /// the rank.
    prefix: [u32; MAX_N + 1],
    /// `placed[i]`: the symbols at positions `0..i`, bit `s` for symbol `s`.
    placed: [u16; MAX_N + 1],
}

/// The symbols `1..=12` in ascending nibbles, symbol `j + 1` in nibble `j`.
const ALL_SYMBOLS: u64 = 0xCBA9_8765_4321;

impl KPerms {
    /// The numbering of the k-permutations of `1..=n`, `k ≤ n ≤ MAX_N`.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        assert!(
            k <= n && n <= MAX_N,
            "k-permutations need k={k} ≤ n={n} ≤ {MAX_N}"
        );
        let count = u32::try_from(falling_factorial(n, k)).expect("12! < 2³² bounds every rank");
        let mut weight = [0; MAX_N];
        for (i, w) in weight.iter_mut().enumerate().take(k) {
            *w = falling_factorial(n - 1 - i, k - 1 - i) as u32;
        }
        KPerms {
            n,
            k,
            count,
            weight,
        }
    }

    /// The k-permutation of rank `rank`. Panics unless
    /// `rank < falling_factorial(n, k)`.
    #[inline]
    pub(crate) fn unrank(&self, rank: usize) -> KPerm {
        assert!(
            rank < self.count as usize,
            "rank {rank} out of range: {} k-permutations of {} symbols",
            self.count,
            self.n
        );
        let mut rest = rank as u32;
        // The symbols not placed yet, ascending, one per nibble.
        let mut avail = ALL_SYMBOLS;
        let mut p = KPerm {
            len: self.k,
            sym: [0; MAX_N],
            prefix: [0; MAX_N + 1],
            placed: [0; MAX_N + 1],
        };
        for i in 0..self.k {
            let w = self.weight[i];
            let d = rest / w;
            rest %= w;
            let at = 4 * d;
            let s = (avail >> at) & 0xF;
            avail = (avail & ((1 << at) - 1)) | (avail >> (at + 4) << at);
            p.sym[i] = s as u8;
            p.prefix[i + 1] = p.prefix[i] + d * w;
            p.placed[i + 1] = p.placed[i] | 1 << s;
        }
        p
    }

    /// The rank of `perm`, which must hold `k` distinct symbols of `1..=n`.
    pub(crate) fn rank(&self, perm: &[u8]) -> usize {
        assert_eq!(
            perm.len(),
            self.k,
            "a k-permutation has k={} symbols",
            self.k
        );
        let mut sym = [0; MAX_N];
        let mut seen = 0u16;
        for (slot, &s) in sym.iter_mut().zip(perm) {
            assert!(
                (1..=self.n).contains(&usize::from(s)),
                "symbol {s} out of range 1..={}",
                self.n
            );
            assert_eq!(seen & 1 << s, 0, "repeated symbol {s}");
            seen |= 1 << s;
            *slot = s;
        }
        self.span(&sym, 0, self.k, 0) as usize
    }

    /// The rank of the smallest k-permutation whose last symbol is `last`.
    pub(crate) fn first_ending_with(&self, last: u8) -> usize {
        let mut sym = [0; MAX_N];
        let rest = (1..=self.n as u8).filter(|&s| s != last).take(self.k - 1);
        for (slot, s) in sym.iter_mut().zip(rest) {
            *slot = s;
        }
        sym[self.k - 1] = last;
        self.rank(&sym[..self.k])
    }

    /// `p` with positions `0` and `i` swapped. Every position past `i` sees
    /// the same set of earlier symbols, so only digits `0..=i` change.
    #[inline]
    pub(crate) fn swap_first(&self, p: &KPerm, i: usize) -> usize {
        let mut q = p.sym;
        q.swap(0, i);
        (p.rank() - p.prefix[i + 1] + self.span(&q, 0, i + 1, 0)) as usize
    }

    /// `p` with its first `l` symbols reversed: digits `0..l` change.
    #[inline]
    pub(crate) fn reverse_prefix(&self, p: &KPerm, l: usize) -> usize {
        let mut q = p.sym;
        q[..l].reverse();
        (p.rank() - p.prefix[l] + self.span(&q, 0, l, 0)) as usize
    }

    /// `p` with the symbol at position `i` replaced by the unused symbol
    /// `s`: digits from `i` on change.
    #[inline]
    pub(crate) fn replace(&self, p: &KPerm, i: usize, s: u8) -> usize {
        let mut q = p.sym;
        q[i] = s;
        (p.prefix[i] + self.span(&q, i, self.k, p.placed[i])) as usize
    }

    /// The symbols of `1..=n` that `p` leaves out, ascending.
    #[inline]
    pub(crate) fn unused(&self, p: &KPerm) -> impl Iterator<Item = u8> {
        let mut free = (((1u32 << self.n) - 1) << 1) & !u32::from(p.placed[p.len]);
        std::iter::from_fn(move || {
            (free != 0).then(|| {
                let s = free.trailing_zeros() as u8;
                free &= free - 1;
                s
            })
        })
    }

    /// The rank digits `from..to` of `sym` contribute, given the set
    /// `placed` of the symbols at positions `..from`: digit `j` is the
    /// number of unplaced symbols below `sym[j]`.
    #[inline]
    fn span(&self, sym: &[u8; MAX_N], from: usize, to: usize, placed: u16) -> u32 {
        let mut placed = u32::from(placed);
        let mut r = 0;
        for (&s, &w) in sym[from..to].iter().zip(&self.weight[from..to]) {
            let below = (1 << s) - 2;
            r += (below & !placed).count_ones() * w;
            placed |= 1 << s;
        }
        r
    }
}

impl KPerm {
    /// The permutation's symbols by position.
    pub(crate) fn symbols(&self) -> &[u8] {
        &self.sym[..self.len]
    }

    /// The symbol at position `i`.
    #[inline]
    pub(crate) fn at(&self, i: usize) -> u8 {
        self.sym[i]
    }

    /// The symbol at the last position.
    #[inline]
    pub(crate) fn last(&self) -> u8 {
        self.sym[self.len - 1]
    }

    #[inline]
    fn rank(&self) -> u32 {
        self.prefix[self.len]
    }
}

/// Plain versions of the ranking and of the four families' adjacency:
/// `O(n²)` per rank and heap buffers per call. The numbering tests hold
/// the core to them, node for node.
#[cfg(test)]
mod reference {
    use super::falling_factorial;

    pub fn rank_kperm(perm: &[u8], n: usize) -> usize {
        let k = perm.len();
        let mut used = [false; 17];
        let mut rank = 0usize;
        for (i, &p) in perm.iter().enumerate() {
            let p = p as usize;
            let smaller = (1..p).filter(|&q| !used[q]).count();
            rank += smaller * falling_factorial(n - 1 - i, k - 1 - i);
            used[p] = true;
        }
        rank
    }

    pub fn unrank_kperm(mut rank: usize, n: usize, k: usize, out: &mut Vec<u8>) {
        out.clear();
        let mut avail: Vec<u8> = (1..=n as u8).collect();
        for i in 0..k {
            let block = falling_factorial(n - 1 - i, k - 1 - i);
            let idx = rank / block;
            rank %= block;
            out.push(avail.remove(idx));
        }
    }

    pub fn star_neighbors(n: usize, u: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut perm = Vec::with_capacity(n);
        unrank_kperm(u, n, n, &mut perm);
        for i in 1..n {
            perm.swap(0, i);
            out.push(rank_kperm(&perm, n));
            perm.swap(0, i);
        }
    }

    pub fn pancake_neighbors(n: usize, u: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut perm = Vec::with_capacity(n);
        unrank_kperm(u, n, n, &mut perm);
        for l in 2..=n {
            perm[..l].reverse();
            out.push(rank_kperm(&perm, n));
            perm[..l].reverse();
        }
    }

    pub fn nk_star_neighbors(n: usize, k: usize, u: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut perm = Vec::with_capacity(k);
        unrank_kperm(u, n, k, &mut perm);
        for i in 1..k {
            perm.swap(0, i);
            out.push(rank_kperm(&perm, n));
            perm.swap(0, i);
        }
        let mut used = [false; 17];
        for &p in &perm {
            used[p as usize] = true;
        }
        let old = perm[0];
        for s in 1..=n as u8 {
            if !used[s as usize] {
                perm[0] = s;
                out.push(rank_kperm(&perm, n));
            }
        }
        perm[0] = old;
    }

    pub fn arrangement_neighbors(n: usize, k: usize, u: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut perm = Vec::with_capacity(k);
        unrank_kperm(u, n, k, &mut perm);
        let mut used = [false; 17];
        for &p in &perm {
            used[p as usize] = true;
        }
        for i in 0..k {
            let old = perm[i];
            for s in 1..=n as u8 {
                if !used[s as usize] {
                    perm[i] = s;
                    out.push(rank_kperm(&perm, n));
                }
            }
            perm[i] = old;
        }
    }

    /// Every family's part label: the last symbol, less one.
    pub fn part_of(n: usize, k: usize, u: usize) -> usize {
        let mut perm = Vec::with_capacity(k);
        unrank_kperm(u, n, k, &mut perm);
        (perm[k - 1] - 1) as usize
    }

    /// Every family's representative: the smallest k-permutation ending
    /// in symbol `part + 1`.
    pub fn representative(n: usize, k: usize, part: usize) -> usize {
        let c = (part + 1) as u8;
        let mut perm: Vec<u8> = (1..=n as u8).filter(|&x| x != c).take(k - 1).collect();
        perm.push(c);
        rank_kperm(&perm, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{Arrangement, NKStar, Pancake, StarGraph};
    use crate::partition::Partitionable;

    #[test]
    fn factorials() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(1), 1);
        assert_eq!(factorial(5), 120);
        assert_eq!(falling_factorial(5, 2), 20);
        assert_eq!(falling_factorial(4, 4), 24);
        assert_eq!(falling_factorial(7, 0), 1);
    }

    #[test]
    fn perm_rank_roundtrip_all_n4() {
        let n = 4;
        let mut buf = Vec::new();
        for r in 0..factorial(n) {
            unrank_perm(r, n, &mut buf);
            assert_eq!(rank_perm(&buf, n), r);
            // buf must be a permutation of 1..=4
            let mut sorted = buf.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn kperm_rank_roundtrip_n5_k3() {
        let (n, k) = (5, 3);
        let mut buf = Vec::new();
        let count = falling_factorial(n, k);
        assert_eq!(count, 60);
        let mut seen = std::collections::HashSet::new();
        for r in 0..count {
            unrank_kperm(r, n, k, &mut buf);
            assert_eq!(buf.len(), k);
            assert_eq!(rank_kperm(&buf, n), r);
            assert!(seen.insert(buf.clone()), "duplicate kperm {buf:?}");
        }
    }

    #[test]
    fn lexicographic_order() {
        let mut prev: Option<Vec<u8>> = None;
        let mut buf = Vec::new();
        for r in 0..falling_factorial(4, 2) {
            unrank_kperm(r, 4, 2, &mut buf);
            if let Some(p) = &prev {
                assert!(p < &buf, "rank {r} not lexicographically increasing");
            }
            prev = Some(buf.clone());
        }
    }

    #[test]
    fn identity_has_rank_zero() {
        assert_eq!(rank_perm(&[1, 2, 3, 4, 5], 5), 0);
        assert_eq!(rank_kperm(&[1, 2], 6), 0);
        let mut buf = Vec::new();
        unrank_perm(0, 6, &mut buf);
        assert_eq!(buf, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn last_rank_is_reverse() {
        let n = 5;
        let mut buf = Vec::new();
        unrank_perm(factorial(n) - 1, n, &mut buf);
        assert_eq!(buf, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn every_rank_round_trips_against_the_reference() {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for n in 1..=8 {
            for k in 0..=n {
                for r in 0..falling_factorial(n, k) {
                    unrank_kperm(r, n, k, &mut got);
                    reference::unrank_kperm(r, n, k, &mut want);
                    assert_eq!(got, want, "unrank {r} of ({n},{k})");
                    assert_eq!(rank_kperm(&got, n), r, "rank of {got:?}");
                }
            }
        }
    }

    #[test]
    fn the_u32_rank_bound_holds_at_twelve_symbols() {
        // 12! − 1 is the largest rank any family numbers.
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for k in [1, 6, 11, 12] {
            let count = falling_factorial(12, k);
            for r in (0..count).step_by(count / 997 + 1).chain([count - 1]) {
                unrank_kperm(r, 12, k, &mut got);
                reference::unrank_kperm(r, 12, k, &mut want);
                assert_eq!(got, want);
                assert_eq!(rank_kperm(&got, 12), r);
            }
        }
        unrank_perm(factorial(12) - 1, 12, &mut got);
        assert_eq!(got, (1..=12).rev().collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ranking_an_out_of_range_symbol_panics() {
        rank_kperm(&[1, 7], 6);
    }

    #[test]
    #[should_panic(expected = "repeated symbol")]
    fn ranking_a_repeated_symbol_panics() {
        rank_kperm(&[2, 2], 6);
    }

    /// Every node of `g`: `neighbors_into` equals the reference's
    /// neighbours in ascending order, and `part_of` and every
    /// `representative` equal the reference's.
    fn assert_numbering_unchanged<G: Partitionable>(
        g: &G,
        n: usize,
        k: usize,
        reference_neighbors: impl Fn(usize, &mut Vec<usize>),
    ) {
        assert_eq!(g.node_count(), falling_factorial(n, k));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for u in 0..g.node_count() {
            reference_neighbors(u, &mut want);
            want.sort_unstable();
            g.neighbors_into(u, &mut got);
            assert_eq!(got, want, "{}: neighbours of {u}", g.name());
            assert_eq!(g.part_of(u), reference::part_of(n, k, u), "{}", g.name());
        }
        for part in 0..g.part_count() {
            assert_eq!(
                g.representative(part),
                reference::representative(n, k, part),
                "{}: representative of part {part}",
                g.name()
            );
        }
    }

    #[test]
    fn star_and_pancake_numbering_is_unchanged() {
        for n in 2..=8 {
            assert_numbering_unchanged(&StarGraph::new(n), n, n, |u, out| {
                reference::star_neighbors(n, u, out)
            });
            assert_numbering_unchanged(&Pancake::new(n), n, n, |u, out| {
                reference::pancake_neighbors(n, u, out)
            });
        }
    }

    #[test]
    fn nk_star_and_arrangement_numbering_is_unchanged() {
        for n in 3..=7 {
            for k in 2..n {
                assert_numbering_unchanged(&NKStar::new(n, k), n, k, |u, out| {
                    reference::nk_star_neighbors(n, k, u, out)
                });
                assert_numbering_unchanged(&Arrangement::new(n, k), n, k, |u, out| {
                    reference::arrangement_neighbors(n, k, u, out)
                });
            }
        }
    }
}
