//! A compact x86-64 instruction decoder for gadget scanning.
//!
//! Covers the instruction subset the synthetic image generator emits plus
//! common encodings found in compiled kernels: one- and two-byte opcodes,
//! REX/operand-size/rep prefixes, ModRM/SIB/displacement addressing and
//! immediates. Unknown opcodes decode to `None`, which terminates a
//! backward gadget walk — conservative in the same direction as Ropper
//! (an undecodable byte ends the chain).

/// Gadget/instruction categories following Follner et al. (ESSoS'16),
/// the taxonomy the paper's Figures 1b and 5 use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// mov/push/pop/xchg/lea.
    DataMove,
    /// add/sub/inc/dec/imul/neg/adc/sbb.
    Arithmetic,
    /// and/or/xor/not.
    Logic,
    /// jmp/jcc/call (and ret itself, reported separately).
    ControlFlow,
    /// shl/shr/sar/rol/ror.
    ShiftAndRotate,
    /// cmp/test/clc/stc/cmc.
    SettingFlags,
    /// movs/stos/lods/scas/cmps (optionally rep-prefixed).
    String,
    /// SSE scalar/packed float ops.
    Floating,
    /// cpuid/rdtsc/hlt/leave/int3 and other odds and ends.
    Misc,
    /// MMX register ops.
    Mmx,
    /// nop (including multi-byte).
    Nop,
    /// ret / ret imm16.
    Ret,
}

/// A decoded instruction: its length and category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insn {
    /// Total encoded length in bytes.
    pub len: usize,
    /// Category.
    pub category: Category,
}

/// Bytes consumed by a ModRM byte's addressing form (ModRM itself + SIB +
/// displacement), or `None` for truncated input.
fn modrm_len(bytes: &[u8]) -> Option<usize> {
    let modrm = *bytes.first()?;
    let mod_ = modrm >> 6;
    let rm = modrm & 7;
    let mut len = 1;
    if mod_ != 3 && rm == 4 {
        // SIB byte.
        let sib = *bytes.get(1)?;
        len += 1;
        if mod_ == 0 && (sib & 7) == 5 {
            len += 4; // disp32 with no base
        }
    }
    match mod_ {
        0 if rm == 5 => len += 4, // RIP-relative disp32
        1 => len += 1,
        2 => len += 4,
        _ => {}
    }
    if bytes.len() < len {
        return None;
    }
    Some(len)
}

/// Decodes one instruction at the start of `bytes`.
pub fn decode(bytes: &[u8]) -> Option<Insn> {
    let mut i = 0;
    let mut rep = false;
    let mut f2 = false;
    // Prefixes (at most a few; bail on absurd runs).
    while i < bytes.len() && i < 4 {
        match bytes[i] {
            0x40..=0x4f => i += 1, // REX
            0x66 => i += 1,        // operand size
            0xf3 => {
                rep = true;
                i += 1;
            }
            0xf2 => {
                f2 = true;
                i += 1;
            }
            _ => break,
        }
    }
    let op = *bytes.get(i)?;
    i += 1;
    let rest = &bytes[i..];
    let with_modrm = |cat: Category| -> Option<Insn> {
        let m = modrm_len(rest)?;
        Some(Insn {
            len: i + m,
            category: cat,
        })
    };
    let plain = |len_after: usize, cat: Category| -> Option<Insn> {
        if rest.len() < len_after {
            None
        } else {
            Some(Insn {
                len: i + len_after,
                category: cat,
            })
        }
    };
    match op {
        // Two-byte opcodes.
        0x0f => {
            let op2 = *rest.first()?;
            let i2 = i + 1;
            let rest2 = &bytes[i2..];
            let with_modrm2 = |cat: Category| -> Option<Insn> {
                let m = modrm_len(rest2)?;
                Some(Insn {
                    len: i2 + m,
                    category: cat,
                })
            };
            match op2 {
                0x1f => with_modrm2(Category::Nop),
                0xaf => with_modrm2(Category::Arithmetic), // imul
                0x28 | 0x29 | 0x10 | 0x11 => with_modrm2(Category::Floating), // movaps/movups
                0x58 | 0x59 | 0x5c | 0x5e | 0x51 => {
                    // add/mul/sub/div/sqrt ss/sd/ps/pd depending on prefix.
                    let _ = (rep, f2);
                    with_modrm2(Category::Floating)
                }
                0x6f | 0x7f => with_modrm2(Category::Mmx), // movq mm
                0xfc | 0xfd | 0xfe | 0xd4 => with_modrm2(Category::Mmx), // padd
                0x77 => {
                    if rest2.is_empty() && bytes.len() < i2 {
                        None
                    } else {
                        Some(Insn {
                            len: i2,
                            category: Category::Mmx, // emms
                        })
                    }
                }
                0xa2 => Some(Insn {
                    len: i2,
                    category: Category::Misc, // cpuid
                }),
                0x31 => Some(Insn {
                    len: i2,
                    category: Category::Misc, // rdtsc
                }),
                0x05 => Some(Insn {
                    len: i2,
                    category: Category::Misc, // syscall
                }),
                0x80..=0x8f => {
                    // jcc rel32
                    if rest2.len() < 4 {
                        None
                    } else {
                        Some(Insn {
                            len: i2 + 4,
                            category: Category::ControlFlow,
                        })
                    }
                }
                0x90..=0x9f => with_modrm2(Category::SettingFlags), // setcc
                0xb6 | 0xb7 | 0xbe | 0xbf => with_modrm2(Category::DataMove), // movzx/movsx
                _ => None,
            }
        }
        // One-byte opcodes.
        0x88..=0x8b => with_modrm(Category::DataMove), // mov
        0x8d => with_modrm(Category::DataMove),        // lea
        0x50..=0x57 => plain(0, Category::DataMove),   // push r
        0x58..=0x5f => plain(0, Category::DataMove),   // pop r
        0x86 | 0x87 => with_modrm(Category::DataMove), // xchg
        0xb8..=0xbf => plain(4, Category::DataMove),   // mov r, imm32
        0xc6 | 0xc7 => {
            // mov r/m, imm8/imm32
            let m = modrm_len(rest)?;
            let imm = if op == 0xc6 { 1 } else { 4 };
            if rest.len() < m + imm {
                None
            } else {
                Some(Insn {
                    len: i + m + imm,
                    category: Category::DataMove,
                })
            }
        }
        0x00..=0x03 => with_modrm(Category::Arithmetic), // add
        0x28..=0x2b => with_modrm(Category::Arithmetic), // sub
        0x10..=0x13 => with_modrm(Category::Arithmetic), // adc
        0x18..=0x1b => with_modrm(Category::Arithmetic), // sbb
        0x83 => {
            // group1 r/m, imm8 — classify as arithmetic (common case).
            let m = modrm_len(rest)?;
            if rest.len() < m + 1 {
                None
            } else {
                Some(Insn {
                    len: i + m + 1,
                    category: Category::Arithmetic,
                })
            }
        }
        0x20..=0x23 => with_modrm(Category::Logic), // and
        0x08..=0x0b => with_modrm(Category::Logic), // or
        0x30..=0x33 => with_modrm(Category::Logic), // xor
        0xf7 => with_modrm(Category::Logic),        // group3 (not/neg/...)
        0xff => with_modrm(Category::ControlFlow),  // group5 inc/dec/call/jmp r/m
        0xc1 | 0xd1 | 0xd3 => {
            // shift group
            let m = modrm_len(rest)?;
            let imm = if op == 0xc1 { 1 } else { 0 };
            if rest.len() < m + imm {
                None
            } else {
                Some(Insn {
                    len: i + m + imm,
                    category: Category::ShiftAndRotate,
                })
            }
        }
        0x38..=0x3b => with_modrm(Category::SettingFlags), // cmp
        0x84 | 0x85 => with_modrm(Category::SettingFlags), // test
        0xf5 | 0xf8 | 0xf9 => plain(0, Category::SettingFlags), // cmc/clc/stc
        0xa4 | 0xa5 | 0xaa | 0xab | 0xac | 0xad | 0xa6 | 0xa7 | 0xae | 0xaf => {
            plain(0, Category::String)
        }
        0xeb => plain(1, Category::ControlFlow), // jmp rel8
        0xe9 => plain(4, Category::ControlFlow), // jmp rel32
        0xe8 => plain(4, Category::ControlFlow), // call rel32
        0x70..=0x7f => plain(1, Category::ControlFlow), // jcc rel8
        0xc3 => plain(0, Category::Ret),
        0xc2 => plain(2, Category::Ret), // ret imm16
        0x90 => plain(0, Category::Nop),
        0xc9 => plain(0, Category::Misc), // leave
        0xcc => plain(0, Category::Misc), // int3
        0xf4 => plain(0, Category::Misc), // hlt
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_encodings() {
        // ret
        assert_eq!(
            decode(&[0xc3]).unwrap(),
            Insn {
                len: 1,
                category: Category::Ret
            }
        );
        // push rax
        assert_eq!(decode(&[0x50]).unwrap().category, Category::DataMove);
        // nop
        assert_eq!(decode(&[0x90]).unwrap().category, Category::Nop);
        // mov rax, rbx : REX.W 89 D8
        let i = decode(&[0x48, 0x89, 0xd8]).unwrap();
        assert_eq!(i.len, 3);
        assert_eq!(i.category, Category::DataMove);
    }

    #[test]
    fn modrm_forms() {
        // add [rax+8], rcx : 48 01 48 08 (mod=01 disp8)
        let i = decode(&[0x48, 0x01, 0x48, 0x08]).unwrap();
        assert_eq!(i.len, 4);
        assert_eq!(i.category, Category::Arithmetic);
        // mov rax, [rip+disp32] : 48 8b 05 xx xx xx xx
        let i = decode(&[0x48, 0x8b, 0x05, 1, 2, 3, 4]).unwrap();
        assert_eq!(i.len, 7);
        // SIB with disp32 base: 8b 04 25 xx xx xx xx
        let i = decode(&[0x8b, 0x04, 0x25, 1, 2, 3, 4]).unwrap();
        assert_eq!(i.len, 7);
    }

    #[test]
    fn immediates() {
        // mov eax, imm32
        assert_eq!(decode(&[0xb8, 1, 2, 3, 4]).unwrap().len, 5);
        // shl rax, 5 : 48 c1 e0 05
        let i = decode(&[0x48, 0xc1, 0xe0, 0x05]).unwrap();
        assert_eq!(i.len, 4);
        assert_eq!(i.category, Category::ShiftAndRotate);
        // ret imm16
        assert_eq!(decode(&[0xc2, 0x08, 0x00]).unwrap().len, 3);
    }

    #[test]
    fn two_byte_opcodes() {
        // imul rax, rbx : 48 0f af c3
        let i = decode(&[0x48, 0x0f, 0xaf, 0xc3]).unwrap();
        assert_eq!(i.category, Category::Arithmetic);
        assert_eq!(i.len, 4);
        // addss xmm0, xmm1 : f3 0f 58 c1
        let i = decode(&[0xf3, 0x0f, 0x58, 0xc1]).unwrap();
        assert_eq!(i.category, Category::Floating);
        // movq mm0, mm1 : 0f 6f c1
        assert_eq!(decode(&[0x0f, 0x6f, 0xc1]).unwrap().category, Category::Mmx);
        // cpuid
        assert_eq!(decode(&[0x0f, 0xa2]).unwrap().category, Category::Misc);
    }

    #[test]
    fn string_ops_with_rep() {
        assert_eq!(decode(&[0xa4]).unwrap().category, Category::String);
        let i = decode(&[0xf3, 0xa5]).unwrap();
        assert_eq!(i.category, Category::String);
        assert_eq!(i.len, 2);
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[0xb8, 1, 2]), None); // imm32 cut short
        assert_eq!(decode(&[0x48, 0x8b]), None); // missing modrm
        assert_eq!(decode(&[0xe9, 1, 2]), None); // rel32 cut short
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert_eq!(decode(&[0x06]), None); // invalid in 64-bit mode
        assert_eq!(decode(&[0x0f, 0xff, 0x00]), None);
    }
}
