//! A compact x86-64 instruction decoder for gadget scanning.
//!
//! Table-driven over the one-byte and `0F` opcode maps as compilers use
//! them: legacy and REX prefixes, ModRM/SIB/displacement addressing and
//! operand-size-dependent immediates. Its lengths are held to objdump's
//! on real compiled code (the fixture test in [`super`]). Unknown opcodes
//! decode to `None`, which terminates a backward gadget walk —
//! conservative in the same direction as Ropper (an undecodable byte ends
//! the chain).

use Category::*;

/// Gadget/instruction categories following Follner et al. (ESSoS'16),
/// the taxonomy the paper's Figures 1b and 5 use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// mov/push/pop/xchg/lea/movzx/movsx/cmovcc/bswap.
    DataMove,
    /// add/sub/inc/dec/imul/mul/div/neg/adc/sbb.
    Arithmetic,
    /// and/or/xor/not.
    Logic,
    /// jmp/jcc/call/loop (and ret itself, reported separately).
    ControlFlow,
    /// shl/shr/sar/rol/ror/shld/shrd.
    ShiftAndRotate,
    /// cmp/test/bt/setcc/clc/stc/cmc.
    SettingFlags,
    /// movs/stos/lods/scas/cmps (optionally rep-prefixed).
    String,
    /// x87 and SSE ops, scalar or packed, float or integer.
    Floating,
    /// cpuid/rdtsc/hlt/leave/int3/ud2/bsf/popcnt and other odds and ends.
    Misc,
    /// MMX register ops (no 66/F2/F3 prefix).
    Mmx,
    /// nop (including multi-byte and endbr64).
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

/// Group 1 (`80`/`81`/`83`) by ModRM `reg`, which is also the ALU block
/// `00`–`3D` by `opcode >> 3`: add or adc sbb and sub xor cmp.
const GROUP1: [Category; 8] = [
    Arithmetic,
    Logic,
    Arithmetic,
    Arithmetic,
    Logic,
    Arithmetic,
    Logic,
    SettingFlags,
];
/// Group 3 (`F6`/`F7`) by ModRM `reg`: test test not neg mul imul div idiv.
const GROUP3: [Category; 8] = [
    SettingFlags,
    SettingFlags,
    Logic,
    Arithmetic,
    Arithmetic,
    Arithmetic,
    Arithmetic,
    Arithmetic,
];
/// Group 5 (`FF`) by ModRM `reg`: inc dec call callf jmp jmpf push.
const GROUP5: [Category; 7] = [
    Arithmetic,
    Arithmetic,
    ControlFlow,
    ControlFlow,
    ControlFlow,
    ControlFlow,
    DataMove,
];

/// Bytes consumed by a ModRM byte's addressing form (ModRM itself + SIB +
/// displacement), or `None` for truncated input.
fn modrm_len(bytes: &[u8]) -> Option<usize> {
    let modrm = *bytes.first()?;
    let (mod_, rm) = (modrm >> 6, modrm & 7);
    let sib = mod_ != 3 && rm == 4;
    // Under mod 0, base 5 means disp32: RIP-relative, or no SIB base.
    let base = if sib { *bytes.get(1)? & 7 } else { rm };
    let disp = match mod_ {
        0 if base == 5 => 4,
        1 => 1,
        2 => 4,
        _ => 0,
    };
    Some(1 + usize::from(sib) + disp)
}

/// One row of the `0F` map: `(has ModRM, immediate bytes, category)`.
/// `sse` is true under a 66/F2/F3 prefix, which makes a SIMD op SSE.
fn two_byte(op: u8, sse: bool, z: usize) -> Option<(bool, usize, Category)> {
    let simd = if sse || op < 0x60 || op == 0xc2 || op == 0xc6 {
        Floating
    } else {
        Mmx
    };
    Some(match op {
        0x05 | 0x0b | 0x31 | 0xa2 => (false, 0, Misc), // syscall/ud2/rdtsc/cpuid
        0x01 | 0x0d | 0x18 | 0xae | 0xb8 | 0xbc | 0xbd | 0xc7 => (true, 0, Misc),
        0x19..=0x1f => (true, 0, Nop), // nop r/m, endbr64
        0x10..=0x17 | 0x28..=0x2f | 0x38 | 0x50..=0x6f | 0x74..=0x76 => (true, 0, simd),
        0x7e | 0x7f | 0xd0..=0xff => (true, 0, simd),
        0x3a | 0x70..=0x73 | 0xc2 | 0xc4..=0xc6 => (true, 1, simd),
        0x77 => (false, 0, Mmx), // emms
        0x40..=0x4f | 0xb0 | 0xb1 | 0xb6 | 0xb7 | 0xbe | 0xbf | 0xc3 => (true, 0, DataMove),
        0xc8..=0xcf => (false, 0, DataMove),    // bswap
        0x80..=0x8f => (false, z, ControlFlow), // jcc rel32
        0x90..=0x9f | 0xa3 | 0xab | 0xb3 | 0xbb => (true, 0, SettingFlags), // setcc/bt
        0xba => (true, 1, SettingFlags),        // bt imm8
        0xa4 | 0xac => (true, 1, ShiftAndRotate), // shld/shrd imm8
        0xa5 | 0xad => (true, 0, ShiftAndRotate),
        0xaf | 0xc0 | 0xc1 => (true, 0, Arithmetic), // imul, xadd
        _ => return None,
    })
}

/// Decodes one instruction at the start of `bytes`.
pub fn decode(bytes: &[u8]) -> Option<Insn> {
    // Legacy prefixes in any order; a REX counts only right before the opcode.
    let (mut i, mut rex, mut o16, mut rep) = (0, 0, false, false);
    let op = loop {
        let b = *bytes.get(i)?;
        i += 1;
        match b {
            0x40..=0x4f => {
                rex = b;
                continue;
            }
            0x66 => o16 = true,
            0xf2 | 0xf3 => rep = true,
            0x26 | 0x2e | 0x36 | 0x3e | 0x64 | 0x65 | 0x67 | 0xf0 => {}
            _ => break b,
        }
        rex = 0;
    };
    let w = rex & 8 != 0;
    // Iz: imm16 under 66 unless REX.W; Iv (mov r, imm): imm64 under REX.W.
    let z = if o16 && !w { 2 } else { 4 };
    let v = if w { 8 } else { z };
    let reg = usize::from(bytes.get(i).map_or(0, |m| (m >> 3) & 7));
    let (modrm, imm, category) = match op {
        0x0f => {
            let op2 = *bytes.get(i)?;
            i += 1 + usize::from(op2 == 0x38 || op2 == 0x3a);
            two_byte(op2, o16 || rep, z)?
        }
        // The ALU block: op r/m,r; op r,r/m; op al,imm8; op eax,imm32.
        0x00..=0x3d if op & 7 < 6 => {
            let imm = [0, 0, 0, 0, 1, z][usize::from(op & 7)];
            (op & 7 < 4, imm, GROUP1[usize::from(op >> 3)])
        }
        0x50..=0x5f | 0x91..=0x99 | 0x9c | 0x9d => (false, 0, DataMove), // push/pop/xchg/cdq
        0x63 | 0x86..=0x8f => (true, 0, DataMove), // movsxd/xchg/mov/lea/pop r/m
        0x68 => (false, z, DataMove),              // push imm32
        0x6a => (false, 1, DataMove),
        0x69 => (true, z, Arithmetic), // imul r, r/m, imm32
        0x6b => (true, 1, Arithmetic),
        0x70..=0x7f | 0xe0..=0xe3 | 0xeb => (false, 1, ControlFlow), // jcc/loop/jmp rel8
        0xe8 | 0xe9 => (false, z, ControlFlow),                      // call/jmp rel32
        0x80 | 0x83 => (true, 1, GROUP1[reg]),
        0x81 => (true, z, GROUP1[reg]),
        0x84 | 0x85 => (true, 0, SettingFlags), // test
        0xa8 => (false, 1, SettingFlags),
        0xa9 => (false, z, SettingFlags),
        0xf5 | 0xf8..=0xfd => (false, 0, SettingFlags), // cmc/clc/stc/cli/sti/cld/std
        0xa4..=0xa7 | 0xaa..=0xaf => (false, 0, String),
        0xb0..=0xb7 => (false, 1, DataMove), // mov r8, imm8
        0xb8..=0xbf => (false, v, DataMove), // mov r, imm32/imm64
        0xc6 => (true, 1, DataMove),
        0xc7 => (true, z, DataMove),
        0xc0 | 0xc1 => (true, 1, ShiftAndRotate),
        0xd0..=0xd3 => (true, 0, ShiftAndRotate),
        0xc2 => (false, 2, Ret), // ret imm16
        0xc3 => (false, 0, Ret),
        0x90 => (false, 0, Nop),
        0xc9 | 0xcc | 0xf4 => (false, 0, Misc), // leave/int3/hlt
        0xcd => (false, 1, Misc),               // int imm8
        0xd8..=0xdf => (true, 0, Floating),     // x87
        0xf6 => (true, if reg < 2 { 1 } else { 0 }, GROUP3[reg]),
        0xf7 => (true, if reg < 2 { z } else { 0 }, GROUP3[reg]),
        0xfe => (true, 0, Arithmetic), // inc/dec r/m8
        0xff => (true, 0, *GROUP5.get(reg)?),
        _ => return None,
    };
    let m = if modrm {
        modrm_len(bytes.get(i..)?)?
    } else {
        0
    };
    let len = i + m + imm;
    (len <= bytes.len() && len <= 15).then_some(Insn { len, category })
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
        assert_eq!(decode(&[0x0f, 0x04, 0x00]), None);
        assert_eq!(decode(&[0xff, 0xf8]), None); // group 5 /7
    }

    #[test]
    fn movabs_carries_imm64() {
        // movabs rcx, imm64 : 48 b9 + 8 bytes
        let i = decode(&[0x48, 0xb9, 1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!((i.len, i.category), (10, Category::DataMove));
    }

    #[test]
    fn operand_size_prefix_shrinks_imm32_to_imm16() {
        // mov WORD PTR [rax+4], imm16 : 66 c7 40 04 + 2 bytes
        assert_eq!(decode(&[0x66, 0xc7, 0x40, 0x04, 1, 2]).unwrap().len, 6);
        // mov ax, imm16 : 66 b8 + 2 bytes
        assert_eq!(decode(&[0x66, 0xb8, 1, 2]).unwrap().len, 4);
    }

    #[test]
    fn group3_test_carries_its_immediate() {
        // test DWORD PTR [rax], imm32 : f7 00 + 4 bytes
        let i = decode(&[0xf7, 0x00, 1, 2, 3, 4]).unwrap();
        assert_eq!((i.len, i.category), (6, Category::SettingFlags));
        // not rax : 48 f7 d0, no immediate
        let i = decode(&[0x48, 0xf7, 0xd0]).unwrap();
        assert_eq!((i.len, i.category), (3, Category::Logic));
    }

    #[test]
    fn group1_imm32_takes_its_category_from_reg() {
        // add rsp, imm32 : 48 81 c4 + 4 bytes
        let i = decode(&[0x48, 0x81, 0xc4, 1, 2, 3, 4]).unwrap();
        assert_eq!((i.len, i.category), (7, Category::Arithmetic));
        // cmp DWORD PTR [rax], imm32 : 81 38 + 4 bytes
        let i = decode(&[0x81, 0x38, 1, 2, 3, 4]).unwrap();
        assert_eq!((i.len, i.category), (6, Category::SettingFlags));
        // xor esi, imm8 : 83 f6 + 1 byte
        assert_eq!(decode(&[0x83, 0xf6, 1]).unwrap().category, Category::Logic);
    }

    #[test]
    fn group5_splits_arith_control_flow_and_push() {
        assert_eq!(
            decode(&[0xff, 0xc0]).unwrap().category,
            Category::Arithmetic
        ); // inc eax
        assert_eq!(
            decode(&[0xff, 0xd0]).unwrap().category,
            Category::ControlFlow
        ); // call rax
        assert_eq!(
            decode(&[0xff, 0xe0]).unwrap().category,
            Category::ControlFlow
        ); // jmp rax
        assert_eq!(decode(&[0xff, 0x30]).unwrap().category, Category::DataMove);
        // push [rax]
    }

    #[test]
    fn prefixed_integer_simd_is_sse() {
        // pxor xmm0, xmm0 : 66 0f ef c0 — SSE2, not MMX
        assert_eq!(
            decode(&[0x66, 0x0f, 0xef, 0xc0]).unwrap().category,
            Category::Floating
        );
        // pxor mm0, mm0 : 0f ef c0
        assert_eq!(decode(&[0x0f, 0xef, 0xc0]).unwrap().category, Category::Mmx);
    }
}
