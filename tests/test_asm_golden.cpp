// Golden assembly text, and the one-encoder contract behind it.
//
// Code generation builds an instruction list that the assembler's object
// builder encodes directly; the assembly text `swsec asm` prints and SFI
// rewrites is a rendering of that list.  Two checks keep the two views one:
//
//  * AsmGolden.RenderedTextMatchesCommitted hashes cc::compile_to_asm's text
//    for every unit below and compares the hashes with
//    tests/golden/asm/asm.txt, so the rendering stays byte for byte the
//    committed text.
//  * AsmGolden.ParsedTextBuildsTheSameObject assembles each rendered text
//    and requires the object built straight from the list, field by field.
//
// The units: the 13 scenario servers under every option set the image
// goldens link, generate_program seeds 1-40 and generate_model seeds 1-10
// under the 5 standard option keys, and libc under each standard key.
//
// After an intended change of the generated code, regenerate the file with
//   SWSEC_ASM_GOLDEN_OUT=<path> ./build/tests/test_asm_golden
// and review the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "assembler/asm_list.hpp"
#include "assembler/assembler.hpp"
#include "cc/codegen.hpp"
#include "cc/compiler.hpp"
#include "cc/parser.hpp"
#include "cc/runtime.hpp"
#include "common/error.hpp"
#include "core/defense.hpp"
#include "core/scenarios.hpp"
#include "crypto/sha256.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/mutate.hpp"

namespace {

using namespace swsec;

/// One unit: a MiniC source compiled under one option set.
struct Unit {
    std::string name;
    std::string unit_name; // link name: static symbols and labels carry it
    std::string source;
    cc::CompilerOptions opts;
};

/// As the image goldens: the six flags, PMA mode Off or InsecureModule.
std::vector<cc::CompilerOptions> linkable_option_sets() {
    std::vector<cc::CompilerOptions> sets;
    for (const cc::PmaMode pma : {cc::PmaMode::Off, cc::PmaMode::InsecureModule}) {
        for (unsigned bits = 0; bits < 64; ++bits) {
            cc::CompilerOptions o;
            o.stack_canaries = (bits & 1u) != 0;
            o.bounds_checks = (bits & 2u) != 0;
            o.fortify_reads = (bits & 4u) != 0;
            o.memcheck = (bits & 8u) != 0;
            o.sanitize_address = (bits & 16u) != 0;
            o.emit_comments = (bits & 32u) != 0;
            o.pma_mode = pma;
            sets.push_back(o);
        }
    }
    return sets;
}

/// The distinct option sets of standard_defenses(), in order.
std::vector<cc::CompilerOptions> standard_option_sets() {
    std::vector<cc::CompilerOptions> sets;
    std::set<std::string> seen;
    for (const auto& d : core::standard_defenses()) {
        if (seen.insert(cc::compiler_options_key(d.copts)).second) {
            sets.push_back(d.copts);
        }
    }
    return sets;
}

std::vector<Unit> golden_units() {
    std::vector<Unit> units;
    const std::vector<std::pair<std::string, std::string>> scenarios = {
        {"fig1_server16", core::scenarios::fig1_server(16)},
        {"fig1_server32", core::scenarios::fig1_server(32)},
        {"rop_server", core::scenarios::rop_server()},
        {"fnptr_server", core::scenarios::fnptr_server()},
        {"arbwrite_server", core::scenarios::arbwrite_server()},
        {"dataonly_server", core::scenarios::dataonly_server()},
        {"leak_server", core::scenarios::leak_server()},
        {"uaf_server", core::scenarios::uaf_server()},
        {"heap_server", core::scenarios::heap_server()},
        {"heap_index_server", core::scenarios::heap_index_server()},
        {"stack_index_server", core::scenarios::stack_index_server()},
        {"heap_leak_server", core::scenarios::heap_leak_server()},
        {"uaf_read_server", core::scenarios::uaf_read_server()},
    };
    for (const auto& o : linkable_option_sets()) {
        for (const auto& [name, source] : scenarios) {
            units.push_back({name, "u0", source, o});
        }
    }
    for (const auto& o : standard_option_sets()) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            units.push_back({"fuzz_program" + std::to_string(seed), "u0",
                             fuzz::generate_program(seed).render(), o});
        }
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            units.push_back({"fuzz_model" + std::to_string(seed), "u0",
                             fuzz::generate_model(seed).render().render(), o});
        }
        units.push_back({"libc", "libc", cc::runtime_libc_minic(), o});
    }
    return units;
}

/// "<unit> <options key> <sha-256 prefix of the text>", or the error.
std::string golden_line(const Unit& u) {
    const std::string head = u.name + " " + cc::compiler_options_key(u.opts) + " ";
    try {
        const std::string text = cc::compile_to_asm(u.source, u.opts, u.unit_name);
        return head + crypto::to_hex(crypto::Sha256::hash(text)).substr(0, 32);
    } catch (const Error& e) {
        return head + "error: " + e.what();
    }
}

std::vector<std::string> read_golden() {
    std::ifstream in(std::filesystem::path(SWSEC_ASM_GOLDEN_DIR) / "asm.txt");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        lines.push_back(line);
    }
    return lines;
}

TEST(AsmGolden, RenderedTextMatchesCommitted) {
    const std::vector<Unit> units = golden_units();
    std::vector<std::string> got;
    got.reserve(units.size());
    for (const Unit& u : units) {
        got.push_back(golden_line(u));
    }
    if (const char* out = std::getenv("SWSEC_ASM_GOLDEN_OUT")) {
        std::ofstream f(out);
        for (const auto& line : got) {
            f << line << '\n';
        }
        GTEST_SKIP() << "wrote " << got.size() << " golden lines to " << out;
    }
    const std::vector<std::string> golden = read_golden();
    ASSERT_EQ(got.size(), golden.size()) << "golden file " << SWSEC_ASM_GOLDEN_DIR << "/asm.txt";
    int reported = 0;
    for (std::size_t i = 0; i < got.size() && reported < 5; ++i) {
        if (got[i] != golden[i]) {
            ADD_FAILURE() << "got '" << got[i] << "', golden '" << golden[i] << "'";
            ++reported;
        }
    }
}

/// Field-by-field object equality; names the first field that differs.
std::string object_difference(const objfmt::ObjectFile& a, const objfmt::ObjectFile& b) {
    if (a.name != b.name || a.source_file != b.source_file) {
        return "name or source file";
    }
    if (a.text != b.text) {
        return "text";
    }
    if (a.data != b.data || a.bss_size != b.bss_size) {
        return "data or bss";
    }
    if (a.symbols.size() != b.symbols.size()) {
        return "symbol count";
    }
    for (std::size_t i = 0; i < a.symbols.size(); ++i) {
        const objfmt::Symbol& x = a.symbols[i];
        const objfmt::Symbol& y = b.symbols[i];
        if (x.name != y.name || x.section != y.section || x.offset != y.offset ||
            x.is_global != y.is_global || x.is_func != y.is_func || x.is_entry != y.is_entry) {
            return "symbol " + std::to_string(i) + " (" + x.name + ")";
        }
    }
    if (a.relocs.size() != b.relocs.size()) {
        return "relocation count";
    }
    for (std::size_t i = 0; i < a.relocs.size(); ++i) {
        const objfmt::Reloc& x = a.relocs[i];
        const objfmt::Reloc& y = b.relocs[i];
        if (x.section != y.section || x.offset != y.offset || x.symbol != y.symbol ||
            x.kind != y.kind || x.addend != y.addend) {
            return "relocation " + std::to_string(i);
        }
    }
    if (a.lines.size() != b.lines.size()) {
        return "line table size";
    }
    for (std::size_t i = 0; i < a.lines.size(); ++i) {
        if (a.lines[i].offset != b.lines[i].offset || a.lines[i].line != b.lines[i].line) {
            return "line entry " + std::to_string(i);
        }
    }
    if (a.redzones.size() != b.redzones.size()) {
        return "redzone count";
    }
    for (std::size_t i = 0; i < a.redzones.size(); ++i) {
        if (a.redzones[i].offset != b.redzones[i].offset ||
            a.redzones[i].size != b.redzones[i].size) {
            return "redzone " + std::to_string(i);
        }
    }
    return "";
}

TEST(AsmGolden, ParsedTextBuildsTheSameObject) {
    int reported = 0;
    for (const Unit& u : golden_units()) {
        cc::Program prog = cc::parse(u.source);
        cc::analyze(prog, cc::runtime_externs(), u.unit_name);
        const assembler::AsmList list = cc::generate(prog, u.opts, u.unit_name);
        const objfmt::ObjectFile direct = assembler::build_object(list, u.unit_name);
        const objfmt::ObjectFile parsed =
            assembler::assemble(assembler::render(list), u.unit_name);
        const std::string diff = object_difference(direct, parsed);
        if (!diff.empty()) {
            ADD_FAILURE() << u.name << " " << cc::compiler_options_key(u.opts) << ": " << diff
                          << " differs";
            if (++reported == 5) {
                break;
            }
        }
    }
}

} // namespace
