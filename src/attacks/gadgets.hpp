// ROP gadget discovery and chain construction (Section III-B).
//
// The scanner decodes the text segment at *every byte offset*, not just at
// intended instruction boundaries — with a variable-length encoding the same
// bytes decode differently at different offsets, which is where unintended
// gadgets come from (exactly as on x86 [2]).  A gadget is a short sequence
// of decodable instructions ending in RET.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "isa/isa.hpp"

namespace swsec::attacks {

struct Gadget {
    std::uint32_t addr = 0;
    std::vector<isa::Insn> insns; // excluding the final RET
    bool intended = false;        // starts on an intended instruction boundary

    [[nodiscard]] std::string to_string() const;
};

class GadgetScanner {
public:
    /// Scan `text` (loaded at `base`) for gadgets with at most `max_insns`
    /// instructions before the terminating RET.
    GadgetScanner(std::span<const std::uint8_t> text, std::uint32_t base, int max_insns = 4);

    [[nodiscard]] const std::vector<Gadget>& gadgets() const noexcept { return gadgets_; }

    /// Address of a "pop <reg>; ret" gadget, if any.
    [[nodiscard]] std::optional<std::uint32_t> find_pop_ret(isa::Reg r) const;

    /// Address of a "sys <n>; ret" gadget (syscall primitive).
    [[nodiscard]] std::optional<std::uint32_t> find_sys_ret(std::uint8_t sysno) const;

    /// Address of a bare "ret" (stack-shift / alignment gadget).
    [[nodiscard]] std::optional<std::uint32_t> find_ret() const;

    /// Number of gadgets found only via unintended decoding.
    [[nodiscard]] std::size_t unintended_count() const noexcept;

private:
    std::vector<Gadget> gadgets_;
};

/// A ROP chain: the sequence of 32-bit words the attacker lays down starting
/// at the overwritten return-address slot.
class RopChain {
public:
    /// Append a code address (a gadget or an entire libc function entered
    /// "via ret", as in a return-to-libc attack).
    RopChain& gadget(std::uint32_t addr) {
        words_.push_back(addr);
        return *this;
    }
    /// Append a data word consumed by the previous gadget (pop fodder,
    /// arguments read from the stack by a called function, ...).
    RopChain& word(std::uint32_t v) {
        words_.push_back(v);
        return *this;
    }

    [[nodiscard]] const std::vector<std::uint32_t>& words() const noexcept { return words_; }

private:
    std::vector<std::uint32_t> words_;
};

} // namespace swsec::attacks
