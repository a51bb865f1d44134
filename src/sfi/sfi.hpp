// Software Fault Isolation (Section IV-A, Wahbe et al. [19], NaCl [20]).
//
// A trusted host loads an *untrusted* machine-code module into its own
// address space after inspecting and rewriting it:
//  * every store is rewritten so the effective address is masked into the
//    module's sandbox data region [data_base, data_base + 2^data_bits) —
//    a wild write lands harmlessly inside the sandbox;
//  * optionally loads are masked too (confidentiality policy);
//  * the verifier rejects modules containing instructions the policy bans
//    outright: syscalls and indirect branches (which could escape the
//    rewritten instruction stream).
//
// The protection is deliberately asymmetric — this is the paper's point
// about sandboxing: the host is protected from the module, but the module
// is not protected from the host (or the OS), unlike a PMA.
//
// The rewriter works on assembly text (the stage where NaCl's constraints
// are imposed by the compiler); the verifier works on assembled binaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/object.hpp"

namespace swsec::sfi {

struct SandboxPolicy {
    std::uint32_t data_base = 0x50000000; // must be 2^data_bits aligned
    std::uint32_t data_bits = 16;         // sandbox data size = 64 KiB
    bool mask_loads = false;              // also confine reads

    [[nodiscard]] std::uint32_t offset_mask() const noexcept {
        return (1u << data_bits) - 1;
    }
};

/// Rewrite module assembly so every store (and, per policy, load) is
/// address-masked into the sandbox.  Register r7 is reserved as the
/// dedicated sandbox register, as in classic SFI.
[[nodiscard]] std::string rewrite_asm(const std::string& module_asm, const SandboxPolicy& policy);

struct VerifyResult {
    bool ok = true;
    std::vector<std::string> violations;
};

/// NaCl-style static verification of an assembled module: rejects syscalls,
/// indirect branches, and stores/loads that are not in the masked form.
[[nodiscard]] VerifyResult verify_object(const objfmt::ObjectFile& obj,
                                         const SandboxPolicy& policy);

/// Convenience: compile a MiniC unit, apply the rewriter, re-assemble and
/// verify.  Throws swsec::Error when the rewritten module fails to verify.
[[nodiscard]] objfmt::ObjectFile sandbox_minic_unit(const std::string& minic_source,
                                                    const SandboxPolicy& policy,
                                                    const std::string& unit_name);

} // namespace swsec::sfi
