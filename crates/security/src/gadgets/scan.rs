//! The gadget scanner: Ropper-style backward walk from every `ret`.
//!
//! For each `ret`/`ret imm16` byte in the text, candidate gadget starts up
//! to [`MAX_GADGET_BYTES`] before it are tried; a candidate counts when a
//! chain of valid instructions decodes from the start and lands exactly on
//! the `ret`. Gadgets are categorized by the operation of their first
//! instruction (the taxonomy of Follner et al. used by the paper).

use std::collections::HashMap;

use super::decode::{decode, Category};

/// Maximum gadget body length considered, matching common tool defaults.
pub const MAX_GADGET_BYTES: usize = 20;

/// Per-category gadget counts.
#[derive(Clone, Debug, Default)]
pub struct GadgetCounts {
    counts: HashMap<Category, u64>,
}

impl GadgetCounts {
    /// Count for one category.
    pub fn get(&self, c: Category) -> u64 {
        self.counts.get(&c).copied().unwrap_or(0)
    }

    /// Total across all categories.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Scales counts found in `from_bytes` of text to `to_bytes`,
    /// rounding each category once.
    pub fn scaled(&self, to_bytes: u64, from_bytes: u64) -> GadgetCounts {
        let scale = |n: u64| (n * to_bytes + from_bytes / 2) / from_bytes;
        GadgetCounts {
            counts: self.counts.iter().map(|(&c, &n)| (c, scale(n))).collect(),
        }
    }

    fn add(&mut self, c: Category) {
        *self.counts.entry(c).or_insert(0) += 1;
    }
}

/// Validates that a chain of instructions decodes from `start` and ends
/// exactly at `ret_end` (exclusive). Returns the first instruction's
/// category.
fn valid_chain(text: &[u8], start: usize, ret_start: usize) -> Option<Category> {
    let mut off = start;
    let mut first = None;
    while off < ret_start {
        let insn = decode(&text[off..])?;
        if insn.category == Category::Ret {
            // An earlier ret inside the candidate: this window is really a
            // shorter gadget counted at a later start.
            return None;
        }
        if first.is_none() {
            first = Some(insn.category);
        }
        off += insn.len;
    }
    if off != ret_start {
        return None;
    }
    // The chain must contain at least one instruction before the ret.
    first
}

/// Scans `text` and counts gadgets per category.
pub fn scan(text: &[u8]) -> GadgetCounts {
    let mut out = GadgetCounts::default();
    for (pos, &b) in text.iter().enumerate() {
        if b != 0xc3 && b != 0xc2 {
            continue;
        }
        // `ret imm16` needs its immediate present.
        if b == 0xc2 && pos + 3 > text.len() {
            continue;
        }
        // The bare ret itself is a (trivial) gadget.
        out.add(Category::Ret);
        let lo = pos.saturating_sub(MAX_GADGET_BYTES);
        for start in lo..pos {
            if let Some(cat) = valid_chain(text, start, pos) {
                out.add(cat);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets::FIXTURE;

    #[test]
    fn finds_handcrafted_gadget() {
        // pop rax; ret  — the canonical gadget.
        let text = [0x90, 0x58, 0xc3];
        let counts = scan(&text);
        assert!(counts.get(Category::DataMove) >= 1, "{counts:?}");
        assert_eq!(counts.get(Category::Ret), 1);
        // nop; pop rax; ret also matched (starting at the nop).
        assert!(counts.get(Category::Nop) >= 1);
    }

    #[test]
    fn unaligned_suffixes_count() {
        // mov eax, imm32 where imm contains c3: b8 c3 01 01 01 — the c3 at
        // offset 1 is a hidden ret reachable at that offset.
        let text = [0x90, 0xb8, 0xc3, 0x01, 0x01, 0x01];
        let counts = scan(&text);
        // The nop at offset 0 cannot chain to it (mov swallows the c3),
        // but the ret itself is counted.
        assert_eq!(counts.get(Category::Ret), 1);
    }

    #[test]
    fn no_rets_no_gadgets() {
        let text = [0x90, 0x50, 0x58, 0x48, 0x89, 0xc0];
        assert_eq!(scan(&text).total(), 0);
    }

    #[test]
    fn chain_must_land_exactly_on_ret() {
        // e8 xx xx xx xx (call rel32) followed by ret: starting inside the
        // immediate is invalid unless the bytes happen to decode.
        let text = [0xe8, 0x00, 0x00, 0x00, 0x00, 0xc3];
        let counts = scan(&text);
        // call; ret is a valid 1-instruction chain.
        assert!(counts.get(Category::ControlFlow) >= 1);
    }

    #[test]
    fn counts_are_linear_in_text() {
        // Counts add over disjoint text, so scaling a sample by size is
        // exact up to the sample's density: the halves differ in density,
        // but the first half plus the rest is the whole.
        let (first, rest) = FIXTURE.split_at(FIXTURE.len() / 2);
        let whole = scan(FIXTURE).total();
        let parts = scan(first).total() + scan(rest).total();
        // Only gadgets straddling the cut are lost: at most 20 + 19 + … + 1
        // start/ret pairs, plus one `ret imm16` whose immediate is cut.
        let straddling = (MAX_GADGET_BYTES * (MAX_GADGET_BYTES + 1) / 2 + 1) as u64;
        assert!(
            (parts..=parts + straddling).contains(&whole),
            "{whole} vs {parts}"
        );
        assert!(whole > 1000, "{whole}");
    }

    #[test]
    fn datamove_dominates_compiled_code() {
        let counts = scan(FIXTURE);
        let dm = counts.get(Category::DataMove);
        for c in [
            Category::Arithmetic,
            Category::Logic,
            Category::ControlFlow,
            Category::SettingFlags,
            Category::String,
            Category::Mmx,
            Category::Floating,
        ] {
            assert!(dm > counts.get(c), "DataMove should dominate {c:?}");
        }
        assert!(counts.total() > 1000);
    }

    #[test]
    fn scaled_rounds_each_category_once() {
        let counts = scan(FIXTURE);
        let len = FIXTURE.len() as u64;
        let scaled = counts.scaled(16 * len, len);
        assert_eq!(scaled.total(), counts.total() * 16);
        assert_eq!(scaled.get(Category::Ret), counts.get(Category::Ret) * 16);
        let third = counts.scaled(len, 3 * len);
        let rets = counts.get(Category::Ret);
        assert_eq!(third.get(Category::Ret), (rets + 1) / 3);
    }
}
