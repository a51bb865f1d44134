#include "attacks/shellcode.hpp"

#include "isa/encoder.hpp"
#include "vm/syscalls.hpp"

namespace swsec::attacks {

using isa::Encoder;
using isa::Op;
using isa::Reg;
using vm::Sys;
using vm::sys_num;

std::vector<std::uint8_t> sc_exit(std::int32_t code) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, code);
    e.imm8(Op::Sys, sys_num(Sys::Exit));
    return e.take();
}

std::vector<std::uint8_t> sc_print_exit(int fd, const std::string& msg, std::uint32_t self_addr,
                                        std::int32_t code) {
    // Layout: [code][message bytes].  The code references the message at
    // self_addr + code_len; two passes pin the length.
    Encoder probe;
    probe.reg_imm32(Op::MovI, Reg::R0, fd);
    probe.reg_imm32(Op::MovI, Reg::R1, 0);
    probe.reg_imm32(Op::MovI, Reg::R2, static_cast<std::int32_t>(msg.size()));
    probe.imm8(Op::Sys, sys_num(Sys::Write));
    probe.reg_imm32(Op::MovI, Reg::R0, code);
    probe.imm8(Op::Sys, sys_num(Sys::Exit));
    const std::uint32_t code_len = probe.size();

    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R0, fd);
    e.reg_imm32(Op::MovI, Reg::R1, static_cast<std::int32_t>(self_addr + code_len));
    e.reg_imm32(Op::MovI, Reg::R2, static_cast<std::int32_t>(msg.size()));
    e.imm8(Op::Sys, sys_num(Sys::Write));
    e.reg_imm32(Op::MovI, Reg::R0, code);
    e.imm8(Op::Sys, sys_num(Sys::Exit));
    std::vector<std::uint8_t> out = e.take();
    out.insert(out.end(), msg.begin(), msg.end());
    return out;
}

std::vector<std::uint8_t> sc_call_exit(std::uint32_t fn_addr, std::int32_t code) {
    Encoder e;
    e.reg_imm32(Op::MovI, Reg::R7, static_cast<std::int32_t>(fn_addr));
    e.reg(Op::CallR, Reg::R7);
    e.reg_imm32(Op::MovI, Reg::R0, code);
    e.imm8(Op::Sys, sys_num(Sys::Exit));
    return e.take();
}

} // namespace swsec::attacks
