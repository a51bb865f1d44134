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

/// Look up the opcode table entry for a raw opcode byte.
/// Returns nullptr for bytes that are not valid opcodes.
[[nodiscard]] const OpInfo* op_info(std::uint8_t opcode) noexcept;

/// Look up by mnemonic ("mov", "jz", ...); nullptr when unknown.  Several
/// mnemonics map to multiple encodings (e.g. "mov" is MovI/MovR); this
/// returns the table and the assembler disambiguates by operand shape.
[[nodiscard]] std::span<const OpInfo> all_ops() noexcept;

/// Decode one instruction from `bytes`.  Returns nullopt if the bytes do not
/// form a valid instruction (bad opcode, bad register field, or truncated).
/// This is the single decoder used by the VM, the disassembler and the ROP
/// gadget scanner, so "what the VM executes" and "what the scanner finds"
/// can never diverge.
[[nodiscard]] std::optional<Insn> decode(std::span<const std::uint8_t> bytes) noexcept;

/// Render a decoded instruction as assembly text. `addr` is the address of
/// the instruction, used to resolve rel32 targets to absolute addresses.
[[nodiscard]] std::string to_string(const Insn& insn, std::uint32_t addr);

} // namespace swsec::isa
