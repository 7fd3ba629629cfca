//! ROP-gadget analysis (Figures 1b and 5).
//!
//! [`scan`] counts gadgets per Follner category with an x86-64
//! [`decode`]r over [`FIXTURE`], a run of whole functions of real machine
//! code, once. Gadget counts add over disjoint text (asserted by the
//! scanner's tests), so each OS's counts are the fixture's scaled to that
//! OS's text size: size is the only per-OS input, and the ratios between
//! OSes are the ratios of their sizes.

pub mod decode;
pub mod scan;

pub use decode::Category;
pub use scan::GadgetCounts;

/// 64 KiB of whole functions from the middle of this workspace's release
/// `repro` `.text` (rustc, x86-64). A rebuilt binary differs, so the copy
/// is checked in and only ever replaced by hand. From the repository root,
/// with `SKIP` the `.text` offset of the first function symbol (`nm -n`)
/// at or after the middle of `.text` and `COUNT` the distance to the first
/// symbol at least 64 KiB further (575776 and 65984 for this copy):
///
/// ```text
/// cd crates/security/fixtures && objcopy -O binary --only-section=.text ../../../target/release/repro text.bin && dd if=text.bin of=repro_text.bin bs=1 skip=$SKIP count=$COUNT && rm text.bin && objdump -D -b binary -m i386:x86-64 -M intel -w repro_text.bin | awk -F'\t' '/^ *[0-9a-f]+:\t/ { split($3, t, " "); m = 1; while (t[m] ~ /^(rep[a-z]*|lock|data16|addr32|cs|ds|es|fs|gs|ss|notrack|bnd)$/) m++; sub(/^ */, "", $1); print substr($1, 1, length($1) - 1), split($2, b, " "), t[m] }' > repro_text.lst
/// ```
///
/// `repro_text.lst` is objdump's linear sweep, one `hex-offset length
/// mnemonic` line per instruction; the decoder is tested against it.
pub const FIXTURE: &[u8] = include_bytes!("../../fixtures/repro_text.bin");

/// One OS's gadget-analysis subject.
#[derive(Clone, Debug)]
pub struct OsImageProfile {
    /// Display name.
    pub name: &'static str,
    /// True text size in bytes (kernel + modules for Linux; whole image
    /// for Kite — matching the paper's measurement method).
    pub text_bytes: u64,
}

/// The six subjects of Figure 5, sizes consistent with `kite-rumprun` /
/// `kite-linux` image models (distro kernels carry progressively larger
/// module trees; EXPERIMENTS.md gives each size's source).
pub fn figure5_profiles() -> Vec<OsImageProfile> {
    const MIB: u64 = 1024 * 1024;
    let sized = |name, text_bytes| OsImageProfile { name, text_bytes };
    vec![
        sized("Kite", kite_rumprun::kite_network_image().total_bytes),
        sized("Default", 88 * MIB),
        sized("CentOS", 196 * MIB),
        sized("Fedora", 232 * MIB),
        sized("Debian", 254 * MIB),
        sized("Ubuntu", kite_linux::ubuntu_image().total_bytes + 63 * MIB),
    ]
}

/// Scans [`FIXTURE`] once and returns each profile's counts, scaled to its
/// text size.
pub fn analyze(profiles: &[OsImageProfile]) -> Vec<GadgetCounts> {
    let sample = scan::scan(FIXTURE);
    profiles
        .iter()
        .map(|p| sample.scaled(p.text_bytes, FIXTURE.len() as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decode::decode;

    /// `(offset, length, mnemonic)` per instruction of objdump's sweep.
    fn listing() -> Vec<(usize, usize, &'static str)> {
        include_str!("../../fixtures/repro_text.lst")
            .lines()
            .map(|line| {
                let mut f = line.split(' ');
                let off = usize::from_str_radix(f.next().unwrap(), 16).unwrap();
                (off, f.next().unwrap().parse().unwrap(), f.next().unwrap())
            })
            .collect()
    }

    #[test]
    fn listing_tiles_the_fixture() {
        let mut next = 0;
        for (off, len, _) in listing() {
            assert_eq!(off, next);
            next += len;
        }
        assert_eq!(next, FIXTURE.len());
        assert!(FIXTURE.len() >= 16 * 1024);
    }

    #[test]
    fn decoder_lengths_agree_with_objdump() {
        let listing = listing();
        let agree = listing
            .iter()
            .filter(|&&(off, len, _)| decode(&FIXTURE[off..]).map(|i| i.len) == Some(len))
            .count();
        let pct = 100.0 * agree as f64 / listing.len() as f64;
        assert!(pct >= 99.0, "{agree}/{} = {pct:.2} %", listing.len());
    }

    #[test]
    fn top_mnemonics_map_to_their_follner_category() {
        let follner = |m: &str| match m {
            "mov" | "lea" | "push" | "pop" => Some(Category::DataMove),
            "add" | "sub" | "imul" => Some(Category::Arithmetic),
            "and" | "or" | "xor" => Some(Category::Logic),
            "cmp" | "test" => Some(Category::SettingFlags),
            "call" | "jmp" => Some(Category::ControlFlow),
            _ if m.starts_with('j') => Some(Category::ControlFlow), // jcc
            _ => None,
        };
        let mut checked = 0;
        for (off, _, m) in listing() {
            if let Some(want) = follner(m) {
                let got = decode(&FIXTURE[off..]).map(|i| i.category);
                assert_eq!(got, Some(want), "{m} at {off:#x}");
                checked += 1;
            }
        }
        assert!(checked > 10_000, "{checked}");
    }

    #[test]
    fn fig5_ratios_are_the_text_size_ratios() {
        let profiles = figure5_profiles();
        let totals: Vec<u64> = analyze(&profiles).iter().map(|c| c.total()).collect();
        for (p, &total) in profiles.iter().zip(&totals) {
            let size_ratio = p.text_bytes as f64 / profiles[0].text_bytes as f64;
            let gadget_ratio = total as f64 / totals[0] as f64;
            // Each of ≤ 12 categories is rounded once.
            assert!(
                (gadget_ratio / size_ratio - 1.0).abs() < 12.0 / totals[0] as f64,
                "{}: {gadget_ratio} vs {size_ratio}",
                p.name
            );
        }
        // Kite has the fewest; each distro kernel more than the default.
        for w in totals.windows(2) {
            assert!(w[1] > w[0], "{totals:?}");
        }
    }
}
