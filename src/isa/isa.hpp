// Instruction set architecture of the swsec virtual machine.
//
// The machine is a 32-bit little-endian von Neumann computer modelled on the
// one used in Fig. 1 of the paper: code and data share one virtual address
// space, the stack grows towards lower addresses, and instructions have a
// *variable-length* byte encoding (1-7 bytes).  Variable-length encoding is
// load-bearing for the reproduction: it is what makes unintended
// Return-Oriented-Programming gadgets possible (decoding the same bytes at a
// different offset yields different instructions), exactly as on x86.
//
// Registers: r0-r7 are general purpose; sp and bp are the stack and base
// pointers of Fig. 1.  The calling convention (used by the MiniC compiler
// and documented in cc/codegen.cpp) passes arguments on the stack and
// returns values in r0.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace swsec::isa {

/// Register file indices.  Values 0-7 are the general-purpose registers;
/// kSp/kBp are the architectural stack and base pointer of Fig. 1.
enum class Reg : std::uint8_t {
    R0 = 0,
    R1 = 1,
    R2 = 2,
    R3 = 3,
    R4 = 4,
    R5 = 5,
    R6 = 6,
    R7 = 7,
    Sp = 8,
    Bp = 9,
};

inline constexpr int kNumRegs = 10;

/// Upper bound on the encoded length of any instruction (the longest real
/// encoding is 6 bytes; fetch paths round up to 8 for headroom).  Shared by
/// the machine's slow fetch path and the per-page decode cache, which treats
/// the last kMaxInsnLength-1 bytes of a page as "may straddle" slow-path
/// territory.
inline constexpr std::uint32_t kMaxInsnLength = 8;

/// True if `v` denotes a valid register index.
[[nodiscard]] constexpr bool is_valid_reg(std::uint8_t v) noexcept { return v < kNumRegs; }

[[nodiscard]] std::string reg_name(Reg r);

/// Parse "r3" / "sp" / "bp"; returns nullopt for anything else.
[[nodiscard]] std::optional<Reg> parse_reg(std::string_view name);

/// Opcode byte values.  RET / CALL / LEAVE / NOP deliberately reuse the x86
/// values (0xc3 / 0xe8 / 0xc9 / 0x90) so that the Fig. 1 flavour — and the
/// gadget-hunting experience — carries over.
enum class Op : std::uint8_t {
    Halt = 0x00,   // stop the machine (normal termination uses SYS exit)
    Nop = 0x90,    // 1 byte
    Push = 0x50,   // PUSH r            : op reg
    Pop = 0x58,    // POP r             : op reg
    PushI = 0x68,  // PUSH imm32        : op imm32
    MovI = 0xb8,   // MOV r, imm32      : op reg imm32
    MovR = 0x89,   // MOV rd, rs        : op (rd<<4|rs)
    Load = 0x8b,   // LOAD rd, [rb+d]   : op (rd<<4|rb) disp32
    Store = 0x8f,  // STORE [rb+d], rs  : op (rb<<4|rs) disp32
    Load8 = 0x8a,  // LOAD8 rd, [rb+d]  : zero-extending byte load
    Store8 = 0x88, // STORE8 [rb+d], rs : stores low byte of rs
    Lea = 0x8d,    // LEA rd, [rb+d]    : rd = rb + d
    Add = 0x01,    // ADD rd, rs
    AddI = 0x05,   // ADD rd, imm32
    Sub = 0x29,    // SUB rd, rs
    SubI = 0x2d,   // SUB rd, imm32
    Mul = 0x0f,    // MUL rd, rs        (low 32 bits)
    MulI = 0x6b,   // MUL rd, imm32
    Divs = 0xf7,   // DIVS rd, rs       (signed; traps on rs==0)
    Rems = 0xf6,   // REMS rd, rs       (signed remainder; traps on rs==0)
    And = 0x21,    // AND rd, rs
    AndI = 0x25,   // AND rd, imm32
    Or = 0x09,     // OR rd, rs
    OrI = 0x0d,    // OR rd, imm32
    Xor = 0x31,    // XOR rd, rs
    XorI = 0x35,   // XOR rd, imm32
    ShlI = 0xc1,   // SHL rd, imm8
    ShrI = 0xd1,   // SHR rd, imm8      (logical)
    SarI = 0xd3,   // SAR rd, imm8      (arithmetic)
    Shl = 0xe0,    // SHL rd, rs
    Shr = 0xe1,    // SHR rd, rs
    Sar = 0xe2,    // SAR rd, rs
    Not = 0xf2,    // NOT rd
    Neg = 0xf3,    // NEG rd
    Cmp = 0x39,    // CMP ra, rb        : sets Z / LT / B flags
    CmpI = 0x3d,   // CMP ra, imm32
    Test = 0x85,   // TEST ra, rb       : sets Z from ra & rb
    Jmp = 0xe9,    // JMP rel32         : relative to next instruction
    Jz = 0x74,     // JZ rel32
    Jnz = 0x75,    // JNZ rel32
    Jl = 0x7c,     // JL rel32          (signed <)
    Jge = 0x7d,    // JGE rel32
    Jg = 0x7f,     // JG rel32
    Jle = 0x7e,    // JLE rel32
    Jb = 0x72,     // JB rel32          (unsigned <)
    Jae = 0x73,    // JAE rel32
    Call = 0xe8,   // CALL rel32        : pushes return address
    CallR = 0xff,  // CALL r            : indirect call through register
    JmpR = 0xfe,   // JMP r             : indirect jump
    Ret = 0xc3,    // RET               : pops return address into IP
    Leave = 0xc9,  // LEAVE             : sp = bp; POP bp
    Sys = 0xcd,    // SYS imm8          : system call, number in imm8
    // Capability-machine extension (see src/capability/).  Operands pack a
    // capability-register index N (0-7) and a GPR index M into the imm8
    // field as (N<<4)|M.  On the base machine these opcodes trap as invalid;
    // MachineOptions::capability_mode enables them.
    CLoad = 0x40,  // CLOAD rd, imm8=(cap<<4|off_reg)  : rd = mem[capN.base + rM]
    CStore = 0x41, // CSTORE rs, imm8=(cap<<4|off_reg) : mem[capN.base + rM] = rs
    CJmp = 0x42,   // CJMP imm8=cap                    : ip = capN.base (requires X)
    CSetB = 0x43,  // CSETB rlen, imm8=(cap<<4|off_reg): shrink capN to
                   //   [base + rM, base + rM + rlen) — monotonic only
};

/// Operand kind of a decoded instruction.
enum class OperandKind : std::uint8_t {
    None,
    Reg,          // one register
    RegReg,       // two registers
    RegImm32,     // register + 32-bit immediate
    Imm32,        // 32-bit immediate (PushI)
    RegMem,       // register + [base + disp32]
    RegImm8,      // register + 8-bit immediate (shifts)
    Rel32,        // 32-bit IP-relative displacement
    Imm8,         // 8-bit immediate (Sys)
};

/// A fully decoded instruction.
struct Insn {
    Op op = Op::Halt;
    Reg r1 = Reg::R0;        // destination / first operand
    Reg r2 = Reg::R0;        // source / base register
    std::int32_t imm = 0;    // immediate, displacement or rel32
    std::uint8_t length = 1; // encoded length in bytes
};

/// Static description of one opcode.
struct OpInfo {
    Op op;
    const char* mnemonic;
    OperandKind operands;
    std::uint8_t length; // total encoded length in bytes
};

namespace detail {

// Encoded length by operand kind: opcode byte + operand bytes.
constexpr std::uint8_t len_for(OperandKind k) noexcept {
    switch (k) {
    case OperandKind::None:
        return 1;
    case OperandKind::Reg:
        return 2;
    case OperandKind::RegReg:
        return 2; // packed into one byte: (r1<<4 | r2)
    case OperandKind::RegImm32:
        return 6;
    case OperandKind::Imm32:
        return 5;
    case OperandKind::RegMem:
        return 6; // opcode, (r1<<4|r2), disp32 -> 1+1+4
    case OperandKind::RegImm8:
        return 3;
    case OperandKind::Rel32:
        return 5;
    case OperandKind::Imm8:
        return 2;
    }
    return 1;
}

constexpr OpInfo make(Op op, const char* mn, OperandKind k) {
    return OpInfo{op, mn, k, len_for(k)};
}

/// The opcode table: the one source of every opcode's mnemonic, operand
/// kind and length.
inline constexpr std::array<OpInfo, 56> kOps = {
    make(Op::Halt, "halt", OperandKind::None),
    make(Op::Nop, "nop", OperandKind::None),
    make(Op::Push, "push", OperandKind::Reg),
    make(Op::Pop, "pop", OperandKind::Reg),
    make(Op::PushI, "pushi", OperandKind::Imm32),
    make(Op::MovI, "movi", OperandKind::RegImm32),
    make(Op::MovR, "mov", OperandKind::RegReg),
    make(Op::Load, "load", OperandKind::RegMem),
    make(Op::Store, "store", OperandKind::RegMem),
    make(Op::Load8, "load8", OperandKind::RegMem),
    make(Op::Store8, "store8", OperandKind::RegMem),
    make(Op::Lea, "lea", OperandKind::RegMem),
    make(Op::Add, "add", OperandKind::RegReg),
    make(Op::AddI, "addi", OperandKind::RegImm32),
    make(Op::Sub, "sub", OperandKind::RegReg),
    make(Op::SubI, "subi", OperandKind::RegImm32),
    make(Op::Mul, "mul", OperandKind::RegReg),
    make(Op::MulI, "muli", OperandKind::RegImm32),
    make(Op::Divs, "divs", OperandKind::RegReg),
    make(Op::Rems, "rems", OperandKind::RegReg),
    make(Op::And, "and", OperandKind::RegReg),
    make(Op::AndI, "andi", OperandKind::RegImm32),
    make(Op::Or, "or", OperandKind::RegReg),
    make(Op::OrI, "ori", OperandKind::RegImm32),
    make(Op::Xor, "xor", OperandKind::RegReg),
    make(Op::XorI, "xori", OperandKind::RegImm32),
    make(Op::ShlI, "shli", OperandKind::RegImm8),
    make(Op::ShrI, "shri", OperandKind::RegImm8),
    make(Op::SarI, "sari", OperandKind::RegImm8),
    make(Op::Shl, "shl", OperandKind::RegReg),
    make(Op::Shr, "shr", OperandKind::RegReg),
    make(Op::Sar, "sar", OperandKind::RegReg),
    make(Op::Not, "not", OperandKind::Reg),
    make(Op::Neg, "neg", OperandKind::Reg),
    make(Op::Cmp, "cmp", OperandKind::RegReg),
    make(Op::CmpI, "cmpi", OperandKind::RegImm32),
    make(Op::Test, "test", OperandKind::RegReg),
    make(Op::Jmp, "jmp", OperandKind::Rel32),
    make(Op::Jz, "jz", OperandKind::Rel32),
    make(Op::Jnz, "jnz", OperandKind::Rel32),
    make(Op::Jl, "jl", OperandKind::Rel32),
    make(Op::Jge, "jge", OperandKind::Rel32),
    make(Op::Jg, "jg", OperandKind::Rel32),
    make(Op::Jle, "jle", OperandKind::Rel32),
    make(Op::Jb, "jb", OperandKind::Rel32),
    make(Op::Jae, "jae", OperandKind::Rel32),
    make(Op::Call, "call", OperandKind::Rel32),
    make(Op::CallR, "callr", OperandKind::Reg),
    make(Op::JmpR, "jmpr", OperandKind::Reg),
    make(Op::Ret, "ret", OperandKind::None),
    make(Op::Leave, "leave", OperandKind::None),
    make(Op::Sys, "sys", OperandKind::Imm8),
    make(Op::CLoad, "cload", OperandKind::RegImm8),
    make(Op::CStore, "cstore", OperandKind::RegImm8),
    make(Op::CJmp, "cjmp", OperandKind::Imm8),
    make(Op::CSetB, "csetb", OperandKind::RegImm8),
};

/// How the bytes after an opcode decode, per first byte.  `length` 0 marks
/// a byte that is no opcode.  Byte 1 holds one register (`regs` 1) or two
/// packed as (r1<<4 | r2) (`regs` 2); an immediate of `imm_size` bytes (4,
/// little-endian and sign-carrying, or 1, zero-extended) starts at
/// `imm_at`.
struct DecodeRow {
    std::uint8_t length = 0;
    std::uint8_t regs = 0;
    std::uint8_t imm_size = 0;
    std::uint8_t imm_at = 0;
};

constexpr DecodeRow decode_row(OperandKind k) noexcept {
    DecodeRow r;
    r.length = len_for(k);
    switch (k) {
    case OperandKind::None:
        break;
    case OperandKind::Reg:
        r.regs = 1;
        break;
    case OperandKind::RegReg:
        r.regs = 2;
        break;
    case OperandKind::RegImm32:
        r.regs = 1;
        r.imm_size = 4;
        r.imm_at = 2;
        break;
    case OperandKind::Imm32:
    case OperandKind::Rel32:
        r.imm_size = 4;
        r.imm_at = 1;
        break;
    case OperandKind::RegMem:
        r.regs = 2;
        r.imm_size = 4;
        r.imm_at = 2;
        break;
    case OperandKind::RegImm8:
        r.regs = 1;
        r.imm_size = 1;
        r.imm_at = 2;
        break;
    case OperandKind::Imm8:
        r.imm_size = 1;
        r.imm_at = 1;
        break;
    }
    return r;
}

/// The decoder's table, derived from kOps at compile time.
inline constexpr std::array<DecodeRow, 256> kDecodeTable = [] {
    std::array<DecodeRow, 256> t{};
    for (const OpInfo& info : kOps) {
        t[static_cast<std::uint8_t>(info.op)] = decode_row(info.operands);
    }
    return t;
}();

/// kOps index per first byte; kNoOp for bytes that are no opcode.
inline constexpr std::uint8_t kNoOp = 0xff;
inline constexpr std::array<std::uint8_t, 256> kOpIndex = [] {
    std::array<std::uint8_t, 256> t{};
    t.fill(kNoOp);
    for (std::size_t i = 0; i < kOps.size(); ++i) {
        t[static_cast<std::uint8_t>(kOps[i].op)] = static_cast<std::uint8_t>(i);
    }
    return t;
}();

} // namespace detail

/// Look up the opcode table entry for a raw opcode byte.
/// Returns nullptr for bytes that are not valid opcodes.
[[nodiscard]] constexpr const OpInfo* op_info(std::uint8_t opcode) noexcept {
    const std::uint8_t i = detail::kOpIndex[opcode];
    return i == detail::kNoOp ? nullptr : &detail::kOps[i];
}

/// Every opcode's table entry (the assembler's mnemonic table and the tests
/// enumerate it).
[[nodiscard]] constexpr std::span<const OpInfo> all_ops() noexcept { return detail::kOps; }

/// Decode one instruction from `bytes`.  Returns nullopt if the bytes do not
/// form a valid instruction (bad opcode, bad register field, or truncated).
/// This is the single decoder used by the VM, the disassembler and the ROP
/// gadget scanner, so "what the VM executes" and "what the scanner finds"
/// can never diverge.  One row of detail::kDecodeTable per first byte says
/// how the rest decodes; immediates are assembled byte by byte, so the
/// result does not depend on the host's byte order.
[[nodiscard]] inline std::optional<Insn> decode(std::span<const std::uint8_t> bytes) noexcept {
    if (bytes.empty()) {
        return std::nullopt;
    }
    const detail::DecodeRow row = detail::kDecodeTable[bytes[0]];
    if (row.length == 0 || bytes.size() < row.length) {
        return std::nullopt;
    }
    Insn insn;
    insn.op = static_cast<Op>(bytes[0]);
    insn.length = row.length;
    if (row.regs == 1) {
        if (!is_valid_reg(bytes[1])) {
            return std::nullopt;
        }
        insn.r1 = static_cast<Reg>(bytes[1]);
    } else if (row.regs == 2) {
        const std::uint8_t a = bytes[1] >> 4;
        const std::uint8_t b = bytes[1] & 0xf;
        if (!is_valid_reg(a) || !is_valid_reg(b)) {
            return std::nullopt;
        }
        insn.r1 = static_cast<Reg>(a);
        insn.r2 = static_cast<Reg>(b);
    }
    if (row.imm_size == 4) {
        const std::uint8_t* p = bytes.data() + row.imm_at;
        insn.imm = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
            (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24));
    } else if (row.imm_size == 1) {
        insn.imm = bytes[row.imm_at];
    }
    return insn;
}

/// Render a decoded instruction as assembly text. `addr` is the address of
/// the instruction, used to resolve rel32 targets to absolute addresses.
[[nodiscard]] std::string to_string(const Insn& insn, std::uint32_t addr);

} // namespace swsec::isa
