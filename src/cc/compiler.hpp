// MiniC compiler driver and hardening options.
//
// The compiler lowers MiniC to an instruction list (assembler/asm_list.hpp),
// which the assembler's object builder encodes into an ObjectFile directly;
// compile_to_asm renders the same list as assembly text.  Its options are the *compiler-inserted* countermeasures of
// the paper:
//
//  * stack_canaries  — StackGuard [9]: a random canary between the locals
//                      and the saved base pointer / return address, checked
//                      before every return (Section III-C1).
//  * bounds_checks   — "safe language" mode: every indexing operation on an
//                      array of statically known size is range-checked
//                      (Section III-C2, compiler-enforced bounds checks).
//  * fortify_reads   — capacity checks on read()/memcpy()/strcpy() into
//                      arrays of known size (FORTIFY_SOURCE analogue; this
//                      catches the Fig. 1 bug where the *length argument*,
//                      not the index, is wrong).
//  * memcheck        — ASan-style testing instrumentation [16]: red zones
//                      around stack arrays, poisoned via the machine's
//                      poison map (heap red zones live in the runtime
//                      allocator).  Requires a machine with
//                      MachineOptions::memcheck.
//  * sanitize_address — deployable shadow-memory sanitizer: the same red
//                      zones, but tracked in an in-image shadow region
//                      (vm::kShadowBase) and checked by *compiled* load/
//                      store instrumentation + kernel syscall interceptors.
//                      The machine itself performs no checking — this is
//                      the production countermeasure, memcheck is the
//                      testing-mode analogue.  Requires
//                      SecurityProfile::sanitize_address so the loader
//                      maps the shadow region.
//
// compile_program links every program against the runtime (crt0 and the
// MiniC libc, cc/runtime.hpp).  The runtime does not depend on the program,
// so its objects are built once and memoized: crt0 once, libc once per
// compiler_options_key.  The memo is thread-safe, keeps only successful
// builds, and is emptied by clear_runtime_memo() (core::clear_image_cache()
// calls it, so a cleared cache is a cold start).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/object.hpp"
#include "cc/ast.hpp"
#include "cc/sema.hpp"

namespace swsec::cc {

/// How a unit relates to a Protected Module Architecture (Section IV).
enum class PmaMode : std::uint8_t {
    Off,            // ordinary code
    InsecureModule, // module placed in a PMA but compiled naively: every
                    // exported function is an entry point, frames live on
                    // the shared stack, no defensive checks — the Fig. 4
                    // attack works against this mode
    SecureModule,   // Agten/Patrignani-style secure compilation: entry
                    // stubs, a private in-module stack, register scrubbing
                    // on exit, function-pointer sanitisation, per-call-site
                    // re-entry points for out-calls
};

struct CompilerOptions {
    bool stack_canaries = false;
    bool bounds_checks = false;
    bool fortify_reads = false;
    bool memcheck = false;
    bool sanitize_address = false;
    bool emit_comments = true;
    PmaMode pma_mode = PmaMode::Off;

    [[nodiscard]] static CompilerOptions none() noexcept { return {}; }
    [[nodiscard]] static CompilerOptions safe() noexcept {
        CompilerOptions o;
        o.stack_canaries = true;
        o.bounds_checks = true;
        o.fortify_reads = true;
        return o;
    }
};

/// A short string in which every CompilerOptions field participates, so two
/// option sets that could produce different code never share a key.  The
/// runtime memo, core's image cache and the fuzzer's per-program memo all
/// key on it.
[[nodiscard]] std::string compiler_options_key(const CompilerOptions& o);

/// Compile one MiniC unit to assembly text (inspectable; Fig. 1(b) views
/// come from disassembling the final image, but this is the direct output).
[[nodiscard]] std::string compile_to_asm(const std::string& source, const CompilerOptions& opts,
                                         const std::string& unit_name = "unit",
                                         const ExternEnv& externs = runtime_externs());

/// Compile one MiniC unit to an object file.
[[nodiscard]] objfmt::ObjectFile compile(const std::string& source, const CompilerOptions& opts,
                                         const std::string& unit_name = "unit",
                                         const ExternEnv& externs = runtime_externs());

/// Compile a whole program: the given MiniC units plus the swsec runtime
/// (crt0/_start, syscall wrappers, small libc), linked into an Image ready
/// for os::load_image.  This is parse_program followed by build_program.
[[nodiscard]] objfmt::Image compile_program(const std::vector<std::string>& minic_units,
                                            const CompilerOptions& opts);

/// As compile_program, but also links extra pre-assembled objects (e.g. a
/// malicious machine-code module for the Section IV attacker, or import
/// stubs for a protected module) and exposes extra extern declarations to
/// the MiniC units (the signatures of those imports).
[[nodiscard]] objfmt::Image
compile_program_with_objects(const std::vector<std::string>& minic_units,
                             const CompilerOptions& opts,
                             const std::vector<objfmt::ObjectFile>& extra_objects,
                             const ExternEnv& extra_externs = {});

/// The front half of compile_program, which no option affects: each MiniC
/// unit parsed and analysed under its link name ("u0", "u1", ...).  Code
/// generation only reads the analysed trees, so one ParsedProgram can be
/// built under any number of option sets.
struct ParsedProgram {
    std::vector<Program> units;
};

/// Throws swsec::Error (ParseError for MiniC errors) as compile_program does.
[[nodiscard]] ParsedProgram parse_program(const std::vector<std::string>& minic_units,
                                          const ExternEnv& extra_externs = {});

/// The per-options back half of compile_program: code generation, object
/// building, the memoized runtime objects and the link, with `extra_objects`
/// linked after the units.
[[nodiscard]] objfmt::Image build_program(const ParsedProgram& program,
                                          const CompilerOptions& opts,
                                          const std::vector<objfmt::ObjectFile>& extra_objects = {});

/// Drop the memoized runtime objects, so the next compile_program builds
/// them again.
void clear_runtime_memo();

} // namespace swsec::cc
