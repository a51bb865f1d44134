// Shellcode kit: machine code delivered as input data (direct code
// injection, Section III-B).  Each builder returns position-independent
// bytes except where an absolute address is baked in by the attacker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swsec::attacks {

/// exit(code) — 8 bytes; the minimal proof of arbitrary code execution.
[[nodiscard]] std::vector<std::uint8_t> sc_exit(std::int32_t code);

/// Message-carrying shellcode: writes an embedded string to `fd`, then
/// exits.  `self_addr` is the address the shellcode will run from (needed to
/// reference the embedded bytes absolutely).
[[nodiscard]] std::vector<std::uint8_t> sc_print_exit(int fd, const std::string& msg,
                                                      std::uint32_t self_addr, std::int32_t code);

/// call fn; exit(code) — e.g. invoke grant_shell() from injected code.
[[nodiscard]] std::vector<std::uint8_t> sc_call_exit(std::uint32_t fn_addr, std::int32_t code);

} // namespace swsec::attacks
