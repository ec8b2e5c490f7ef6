//! Multi-pattern byte matching.
//!
//! The passive fingerprint stage searches every collected banner for every
//! known honeypot signature. With ~14M banners × 9 signatures in the paper's
//! dataset, per-banner cost matters; an Aho-Corasick automaton finds all
//! patterns in one pass.
//!
//! Two implementation details matter at this scale:
//!
//! * **Dense transition rows.** [`AhoCorasick`] precomputes the full
//!   goto-with-failure function into one `[u32; 256]` row per trie node
//!   (a DFA), so the scan loop is a single indexed load per input byte —
//!   no hashing, no failure-link walk.
//! * **Output links instead of merged output lists.** Copying each node's
//!   failure-target output list into the node (the textbook shortcut) is
//!   quadratic for repeated-prefix pattern sets (`a`, `aa`, `aaa`, …).
//!   Instead every node stores only the patterns ending exactly there plus
//!   a link to the nearest proper-suffix node with output; match emission
//!   walks that chain, whose cost is proportional to actual matches.
//!
//! A naive per-pattern scan is retained for the `banner_match` ablation
//! benchmark and as a differential-testing oracle.

use std::collections::{HashMap, VecDeque};

/// Trie + failure/output links, from which [`AhoCorasick`] derives its
/// dense rows.
struct Links {
    goto_fn: Vec<HashMap<u8, u32>>,
    fail: Vec<u32>,
    /// Patterns ending exactly at each node (no failure-closure merging).
    ends: Vec<Vec<u32>>,
    /// Nearest proper-suffix node with output (0 = none; the root never has
    /// output, so it doubles as the chain terminator).
    olink: Vec<u32>,
    /// Breadth-first node order (root first); parents precede children.
    bfs: Vec<u32>,
}

fn build_links<P: AsRef<[u8]>>(patterns: &[P]) -> Links {
    assert!(
        patterns.iter().all(|p| !p.as_ref().is_empty()),
        "empty patterns are not allowed"
    );
    let mut goto_fn: Vec<HashMap<u8, u32>> = vec![HashMap::new()];
    let mut ends: Vec<Vec<u32>> = vec![Vec::new()];
    for (idx, pat) in patterns.iter().enumerate() {
        let mut node = 0u32;
        for &b in pat.as_ref() {
            let next = match goto_fn[node as usize].get(&b) {
                Some(&n) => n,
                None => {
                    let n = goto_fn.len() as u32;
                    goto_fn.push(HashMap::new());
                    ends.push(Vec::new());
                    goto_fn[node as usize].insert(b, n);
                    n
                }
            };
            node = next;
        }
        ends[node as usize].push(idx as u32);
    }
    // BFS for failure links; olink derives from the (already final) failure
    // target because BFS visits shallower nodes first.
    let mut fail = vec![0u32; goto_fn.len()];
    let mut olink = vec![0u32; goto_fn.len()];
    let mut bfs: Vec<u32> = vec![0];
    let mut queue: VecDeque<u32> = VecDeque::new();
    for &child in goto_fn[0].values() {
        queue.push_back(child);
    }
    while let Some(node) = queue.pop_front() {
        bfs.push(node);
        let f = fail[node as usize];
        olink[node as usize] = if ends[f as usize].is_empty() {
            olink[f as usize]
        } else {
            f
        };
        let transitions: Vec<(u8, u32)> =
            goto_fn[node as usize].iter().map(|(&b, &n)| (b, n)).collect();
        for (b, next) in transitions {
            queue.push_back(next);
            let mut f = fail[node as usize];
            loop {
                if let Some(&g) = goto_fn[f as usize].get(&b) {
                    if g != next {
                        fail[next as usize] = g;
                    }
                    break;
                }
                if f == 0 {
                    break;
                }
                f = fail[f as usize];
            }
        }
    }
    Links {
        goto_fn,
        fail,
        ends,
        olink,
        bfs,
    }
}

/// Emit all patterns matched at `node` by walking the output-link chain.
#[inline]
fn emit(ends: &[Vec<u32>], olink: &[u32], first: u32, hits: &mut Vec<u32>) {
    let mut n = first;
    while n != 0 {
        hits.extend_from_slice(&ends[n as usize]);
        n = olink[n as usize];
    }
}

/// An Aho-Corasick automaton with dense precomputed transitions: one
/// `[u32; 256]` row per node, a single indexed load per scanned byte.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Flattened DFA rows: `next[node * 256 + byte]` is the full
    /// goto-with-failure transition.
    next: Vec<u32>,
    /// Patterns ending exactly at each node.
    ends: Vec<Vec<u32>>,
    /// Nearest suffix node with output, per node (0 = none).
    olink: Vec<u32>,
    /// First node of the output chain to emit when standing on a node:
    /// the node itself if it has output, else its olink. One load decides
    /// whether the (rare) emission loop runs at all.
    out_head: Vec<u32>,
    pattern_count: usize,
}

impl AhoCorasick {
    /// Build the automaton. Empty patterns are rejected.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> AhoCorasick {
        let links = build_links(patterns);
        let n = links.goto_fn.len();
        let mut next = vec![0u32; n * 256];
        // BFS order guarantees `fail[node]`'s row is complete before
        // `node`'s row is derived from it.
        for &node in &links.bfs {
            let base = node as usize * 256;
            if node == 0 {
                for (&b, &child) in &links.goto_fn[0] {
                    next[b as usize] = child;
                }
            } else {
                let fbase = links.fail[node as usize] as usize * 256;
                for b in 0..256 {
                    next[base + b] = match links.goto_fn[node as usize].get(&(b as u8)) {
                        Some(&child) => child,
                        None => next[fbase + b],
                    };
                }
            }
        }
        let out_head = (0..n as u32)
            .map(|i| {
                if links.ends[i as usize].is_empty() {
                    links.olink[i as usize]
                } else {
                    i
                }
            })
            .collect();
        AhoCorasick {
            next,
            ends: links.ends,
            olink: links.olink,
            out_head,
            pattern_count: patterns.len(),
        }
    }

    /// Indices of all patterns occurring in `haystack` (deduplicated,
    /// sorted).
    pub fn find_all(&self, haystack: &[u8]) -> Vec<u32> {
        let mut hits = Vec::new();
        let mut node = 0u32;
        for &b in haystack {
            node = self.next[node as usize * 256 + b as usize];
            let head = self.out_head[node as usize];
            if head != 0 {
                emit(&self.ends, &self.olink, head, &mut hits);
            }
        }
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Index of the first pattern present, if any.
    pub fn find_first(&self, haystack: &[u8]) -> Option<u32> {
        self.find_all(haystack).into_iter().next()
    }

    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }
}

/// Naive multi-pattern scan (ablation oracle).
pub fn naive_find_all<P: AsRef<[u8]>>(patterns: &[P], haystack: &[u8]) -> Vec<u32> {
    let mut hits = Vec::new();
    for (i, p) in patterns.iter().enumerate() {
        let p = p.as_ref();
        if !p.is_empty() && haystack.windows(p.len()).any(|w| w == p) {
            hits.push(i as u32);
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_multiple_patterns() {
        let ac = AhoCorasick::new(&[b"he".as_slice(), b"she", b"his", b"hers"]);
        assert_eq!(ac.find_all(b"ushers"), vec![0, 1, 3]);
        assert_eq!(ac.find_all(b"nothing"), Vec::<u32>::new());
        assert_eq!(ac.find_first(b"his house"), Some(2)); // only "his" occurs
    }

    #[test]
    fn overlapping_and_nested_patterns() {
        let ac = AhoCorasick::new(&[b"abc".as_slice(), b"bc", b"c"]);
        assert_eq!(ac.find_all(b"abc"), vec![0, 1, 2]);
        assert_eq!(ac.find_all(b"zc"), vec![2]);
    }

    #[test]
    fn binary_patterns() {
        let cowrie = b"\xff\xfd\x1flogin:";
        let ac = AhoCorasick::new(&[cowrie.as_slice()]);
        let banner = b"\xff\xfd\x1flogin: \r\n$ ";
        assert_eq!(ac.find_all(banner), vec![0]);
        assert!(ac.find_all(b"\xff\xfb\x01login: ").is_empty());
    }

    #[test]
    fn agrees_with_naive() {
        let patterns: Vec<&[u8]> = vec![b"login:", b"\xff\xfd\x1f", b"BusyBox", b"$"];
        let ac = AhoCorasick::new(&patterns);
        for haystack in [
            b"BusyBox v1.19.3 login: $ ".as_slice(),
            b"\xff\xfd\x1f",
            b"",
            b"no match here!",
            b"$$$$",
        ] {
            let expect = naive_find_all(&patterns, haystack);
            assert_eq!(ac.find_all(haystack), expect, "haystack {haystack:?}");
        }
    }

    #[test]
    fn suffix_patterns_emit_through_output_links() {
        // "hers" ending also matches "ers"? No — patterns here are chosen so
        // matches surface only via the olink chain: standing on the node for
        // "xab", both "ab" and "b" must be reported.
        let patterns: Vec<&[u8]> = vec![b"xab", b"ab", b"b"];
        let ac = AhoCorasick::new(&patterns);
        assert_eq!(ac.find_all(b"xab"), vec![0, 1, 2]);
        assert_eq!(ac.find_all(b"zab"), vec![1, 2]);
        assert_eq!(ac.find_all(b"b"), vec![2]);
    }

    #[test]
    fn pathological_repeated_prefixes_build_quickly() {
        // 600 patterns "a", "aa", ..., "a"*600: the old merged-output-list
        // construction copied O(k²) ≈ 180k pattern ids while linking; the
        // output-link chain stores each exactly once. The assertion is on
        // total stored ids (structure), the wall-clock win follows from it.
        let patterns: Vec<Vec<u8>> = (1..=600).map(|k| vec![b'a'; k]).collect();
        let ac = AhoCorasick::new(&patterns);
        let stored: usize = ac.ends.iter().map(|e| e.len()).sum();
        assert_eq!(stored, patterns.len(), "each pattern id stored exactly once");
        // Matching the longest haystack still reports every pattern.
        let all = ac.find_all(&vec![b'a'; 600]);
        assert_eq!(all.len(), 600);
        // And a haystack of length k reports exactly the k shortest.
        assert_eq!(ac.find_all(&vec![b'a'; 3]), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty patterns")]
    fn rejects_empty_pattern() {
        AhoCorasick::new(&[b"".as_slice()]);
    }
}
