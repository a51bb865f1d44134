#include "cc/compiler.hpp"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "assembler/asm_list.hpp"
#include "assembler/assembler.hpp"
#include "assembler/linker.hpp"
#include "cc/codegen.hpp"
#include "cc/parser.hpp"
#include "cc/runtime.hpp"

namespace swsec::cc {

// Drift guard: compiler_options_key() enumerates CompilerOptions by hand, so
// a field added to the struct without a matching key component would
// silently alias memoized runtimes and cached images across defense
// configurations — a wrong-code-reuse bug a differential fuzzer would
// misattribute to the compiler.  Fail the build instead: adding a field
// changes the size, and whoever does it must extend compiler_options_key()
// (and this constant) in the same change.
static_assert(sizeof(CompilerOptions) == 7,
              "cc::CompilerOptions changed: update compiler_options_key() in "
              "cc/compiler.cpp to include the new field, then bump this guard");

std::string compiler_options_key(const CompilerOptions& o) {
    std::string k;
    k += o.stack_canaries ? 'c' : '-';
    k += o.bounds_checks ? 'b' : '-';
    k += o.fortify_reads ? 'f' : '-';
    k += o.memcheck ? 'm' : '-';
    k += o.sanitize_address ? 'a' : '-';
    k += o.emit_comments ? 'e' : '-';
    k += static_cast<char>('0' + static_cast<int>(o.pma_mode));
    return k;
}

namespace {

/// The runtime's objects by name: "crt0", and "libc/" + options key.
struct RuntimeMemo {
    std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<const objfmt::ObjectFile>> objects;
};

RuntimeMemo& runtime_memo() {
    static RuntimeMemo m;
    return m;
}

/// The object memoized under `key`, built by `build()` on a miss.  The build
/// runs outside the lock: a racing duplicate is deterministic, so either
/// result is correct and the first insert wins.  A build that throws leaves
/// no entry.
template <typename Build>
std::shared_ptr<const objfmt::ObjectFile> runtime_object(const std::string& key, Build&& build) {
    RuntimeMemo& m = runtime_memo();
    {
        const std::lock_guard<std::mutex> lock(m.mutex);
        const auto it = m.objects.find(key);
        if (it != m.objects.end()) {
            return it->second;
        }
    }
    auto obj = std::make_shared<const objfmt::ObjectFile>(build());
    const std::lock_guard<std::mutex> lock(m.mutex);
    return m.objects.try_emplace(key, std::move(obj)).first->second;
}

/// The link name of a program's i-th MiniC unit: static symbols are mangled
/// with it.
std::string program_unit_name(std::size_t i) { return "u" + std::to_string(i); }

Program analysed(const std::string& source, const ExternEnv& externs, const std::string& unit_name) {
    Program prog = parse(source);
    analyze(prog, externs, unit_name);
    return prog;
}

} // namespace

void clear_runtime_memo() {
    RuntimeMemo& m = runtime_memo();
    const std::lock_guard<std::mutex> lock(m.mutex);
    m.objects.clear();
}

std::string compile_to_asm(const std::string& source, const CompilerOptions& opts,
                           const std::string& unit_name, const ExternEnv& externs) {
    return assembler::render(generate(analysed(source, externs, unit_name), opts, unit_name));
}

objfmt::ObjectFile compile(const std::string& source, const CompilerOptions& opts,
                           const std::string& unit_name, const ExternEnv& externs) {
    return assembler::build_object(generate(analysed(source, externs, unit_name), opts, unit_name),
                                   unit_name);
}

objfmt::Image compile_program(const std::vector<std::string>& minic_units,
                              const CompilerOptions& opts) {
    return build_program(parse_program(minic_units), opts);
}

objfmt::Image compile_program_with_objects(const std::vector<std::string>& minic_units,
                                           const CompilerOptions& opts,
                                           const std::vector<objfmt::ObjectFile>& extra_objects,
                                           const ExternEnv& extra_externs) {
    return build_program(parse_program(minic_units, extra_externs), opts, extra_objects);
}

ParsedProgram parse_program(const std::vector<std::string>& minic_units,
                            const ExternEnv& extra_externs) {
    ExternEnv env = runtime_externs();
    for (const auto& [name, type] : extra_externs) {
        env[name] = type;
    }
    ParsedProgram out;
    out.units.reserve(minic_units.size());
    for (std::size_t i = 0; i < minic_units.size(); ++i) {
        out.units.push_back(analysed(minic_units[i], env, program_unit_name(i)));
    }
    return out;
}

objfmt::Image build_program(const ParsedProgram& program, const CompilerOptions& opts,
                            const std::vector<objfmt::ObjectFile>& extra_objects) {
    const std::shared_ptr<const objfmt::ObjectFile> crt0 =
        runtime_object("crt0", [] { return assembler::assemble(runtime_crt0_asm(), "crt0"); });
    // The runtime library is compiled with the same hardening profile as the
    // program (a real distro ships a canary-protected libc alongside
    // canary-protected applications).
    const std::shared_ptr<const objfmt::ObjectFile> libc =
        runtime_object("libc/" + compiler_options_key(opts),
                       [&] { return compile(runtime_libc_minic(), opts, "libc"); });
    std::vector<objfmt::ObjectFile> units;
    units.reserve(program.units.size());
    for (std::size_t i = 0; i < program.units.size(); ++i) {
        const std::string name = program_unit_name(i);
        units.push_back(assembler::build_object(generate(program.units[i], opts, name), name));
    }
    // The memoized runtime objects are linked in place, not copied.
    std::vector<const objfmt::ObjectFile*> objects;
    objects.reserve(2 + units.size() + extra_objects.size());
    objects.push_back(crt0.get());
    objects.push_back(libc.get());
    for (const objfmt::ObjectFile& obj : units) {
        objects.push_back(&obj);
    }
    for (const objfmt::ObjectFile& obj : extra_objects) {
        objects.push_back(&obj);
    }
    return assembler::link(objects);
}

} // namespace swsec::cc
