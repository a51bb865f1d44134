// Golden images: the toolchain's output pinned byte for byte.
//
// Every relative oracle (defense vs baseline, tier A/B, decode cache on/off)
// compares two images from the same compiler, so a change that shifts bytes
// on both sides of every comparison goes unseen.  This test hashes every
// field of each image (or object) the toolchain produces for a fixed set of
// sources and option sets and compares the hashes with
// tests/golden/images/images.txt.
//
// Each entry is checked three ways: cold (after core::clear_image_cache(),
// which also empties the compiler's runtime memo), warm, and from 8 threads
// that start from a cleared memo — so the memo must be invisible in the
// output however it is filled.  The generated-program entries are checked a
// fourth way, built from one parsed and analysed AST per source as the
// fuzzer builds them, so sharing an AST across option sets must be
// invisible too.
//
// After an intended change of the generated code, regenerate the file with
//   SWSEC_IMAGE_GOLDEN_OUT=<path> ./build/tests/test_image_golden
// and review the diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "assembler/assembler.hpp"
#include "attacks/scraper.hpp"
#include "cc/compiler.hpp"
#include "cc/runtime.hpp"
#include "common/error.hpp"
#include "core/defense.hpp"
#include "core/image_cache.hpp"
#include "core/scenarios.hpp"
#include "crypto/sha256.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/mutate.hpp"
#include "pma/loader.hpp"
#include "pma/module.hpp"
#include "sfi/sfi.hpp"

namespace {

using namespace swsec;

/// Serialises fields into one byte string; every variable-length field is
/// length-prefixed so that no two different images serialise alike.
class Fields {
public:
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
        }
    }
    void flag(bool b) { bytes_.push_back(b ? '\1' : '\0'); }
    void bytes(const std::vector<std::uint8_t>& v) {
        u32(static_cast<std::uint32_t>(v.size()));
        bytes_.append(v.begin(), v.end());
    }
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes_ += s;
    }
    [[nodiscard]] std::string digest() const {
        return crypto::to_hex(crypto::Sha256::hash(bytes_)).substr(0, 32);
    }

private:
    std::string bytes_;
};

std::string image_digest(const objfmt::Image& img) {
    Fields f;
    f.bytes(img.text);
    f.bytes(img.data);
    f.u32(img.bss_size);
    std::vector<std::pair<std::string, objfmt::ImageSymbol>> syms(img.symbols.begin(),
                                                                  img.symbols.end());
    std::sort(syms.begin(), syms.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    f.u32(static_cast<std::uint32_t>(syms.size()));
    for (const auto& [name, s] : syms) {
        f.str(name);
        f.u32(static_cast<std::uint32_t>(s.section));
        f.u32(s.offset);
        f.flag(s.is_func);
        f.flag(s.is_entry);
    }
    f.u32(static_cast<std::uint32_t>(img.relocs.size()));
    for (const auto& r : img.relocs) {
        f.u32(static_cast<std::uint32_t>(r.section));
        f.u32(r.offset);
        f.u32(static_cast<std::uint32_t>(r.target_section));
        f.u32(r.target_offset);
        f.u32(static_cast<std::uint32_t>(r.kind));
    }
    for (const auto* offsets : {&img.func_offsets, &img.entry_offsets}) {
        f.u32(static_cast<std::uint32_t>(offsets->size()));
        for (const std::uint32_t o : *offsets) {
            f.u32(o);
        }
    }
    f.u32(static_cast<std::uint32_t>(img.line_table.size()));
    for (const auto& le : img.line_table) {
        f.u32(le.offset);
        f.u32(le.line);
        f.u32(le.file);
    }
    f.u32(static_cast<std::uint32_t>(img.line_files.size()));
    for (const auto& file : img.line_files) {
        f.str(file);
    }
    f.u32(static_cast<std::uint32_t>(img.redzones.size()));
    for (const auto& rz : img.redzones) {
        f.u32(rz.offset);
        f.u32(rz.size);
    }
    return f.digest();
}

std::string object_digest(const objfmt::ObjectFile& obj) {
    Fields f;
    f.str(obj.name);
    f.str(obj.source_file);
    f.bytes(obj.text);
    f.bytes(obj.data);
    f.u32(obj.bss_size);
    std::vector<objfmt::Symbol> syms = obj.symbols;
    std::sort(syms.begin(), syms.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    f.u32(static_cast<std::uint32_t>(syms.size()));
    for (const auto& s : syms) {
        f.str(s.name);
        f.u32(static_cast<std::uint32_t>(s.section));
        f.u32(s.offset);
        f.flag(s.is_global);
        f.flag(s.is_func);
        f.flag(s.is_entry);
    }
    f.u32(static_cast<std::uint32_t>(obj.relocs.size()));
    for (const auto& r : obj.relocs) {
        f.u32(static_cast<std::uint32_t>(r.section));
        f.u32(r.offset);
        f.str(r.symbol);
        f.u32(static_cast<std::uint32_t>(r.kind));
        f.u32(static_cast<std::uint32_t>(r.addend));
    }
    f.u32(static_cast<std::uint32_t>(obj.lines.size()));
    for (const auto& le : obj.lines) {
        f.u32(le.offset);
        f.u32(le.line);
    }
    f.u32(static_cast<std::uint32_t>(obj.redzones.size()));
    for (const auto& rz : obj.redzones) {
        f.u32(rz.offset);
        f.u32(rz.size);
    }
    return f.digest();
}

/// One golden line: "<source> <options key or -> <digest>".
struct Entry {
    std::string source;
    std::string key;
    std::function<std::string()> digest;

    [[nodiscard]] std::string line() const {
        try {
            return source + " " + key + " " + digest();
        } catch (const Error& e) {
            return source + " " + key + " error: " + e.what();
        }
    }
};

/// Every combination compile_program links: the six flags, with the PMA
/// mode Off or InsecureModule (SecureModule code cannot link against libc).
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

const char* kModuleSource = R"(
    static int tries_left = 3;
    static int PIN = 1234;
    static int secret = 666;

    int get_secret(int provided_pin) {
      if (tries_left > 0) {
        if (PIN == provided_pin) {
          tries_left = 3;
          return secret;
        } else { tries_left = tries_left - 1; return 0; }
      } else { return 0; }
    }
)";

const char* kSandboxedSource = R"(
    static int pixels[8];

    int checksum(int a, int b) {
      pixels[0] = a;
      pixels[1] = b;
      return pixels[0] + pixels[1];
    }

    int poke(int addr, int value) {
      int* p = (int*)addr;
      *p = value;
      return 0;
    }
)";

std::vector<Entry> golden_entries() {
    std::vector<Entry> entries;
    const auto add_program = [&](const std::string& name, const std::string& source,
                                 const cc::CompilerOptions& o) {
        entries.push_back({name, cc::compiler_options_key(o), [source, o] {
                               return image_digest(cc::compile_program({source}, o));
                           }});
    };
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
    // Option-set-major, so each pass builds every runtime first from cold.
    for (const auto& o : linkable_option_sets()) {
        for (const auto& [name, source] : scenarios) {
            add_program(name, source, o);
        }
    }
    for (const auto& o : standard_option_sets()) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            add_program("fuzz_program" + std::to_string(seed),
                        fuzz::generate_program(seed).render(), o);
        }
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            add_program("fuzz_model" + std::to_string(seed),
                        fuzz::generate_model(seed).render().render(), o);
        }
    }

    // Objects and images from the hand-written assembly producers.
    const auto add_object = [&](const std::string& name,
                                std::function<objfmt::ObjectFile()> make) {
        entries.push_back({name, "-", [make] { return object_digest(make()); }});
    };
    add_object("crt0", [] { return assembler::assemble(cc::runtime_crt0_asm(), "crt0"); });
    add_object("scraper", [] { return attacks::make_scraper_object(); });
    add_object("dumper", [] { return attacks::make_dumper_object(); });
    add_object("pma_imports", [] {
        const auto module = pma::build_module(kModuleSource, pma::ModuleSecurity::Secure, "secret");
        return pma::make_import_stubs(module, pma::ModulePlacement{}, {"get_secret"});
    });
    add_object("sfi_sandbox", [] {
        return sfi::sandbox_minic_unit(kSandboxedSource, sfi::SandboxPolicy{}, "codec");
    });
    for (const auto security : {pma::ModuleSecurity::Insecure, pma::ModuleSecurity::Secure}) {
        const bool secure = security == pma::ModuleSecurity::Secure;
        entries.push_back({secure ? "pma_module_secure" : "pma_module_insecure", "-", [security] {
                               return image_digest(
                                   pma::build_module(kModuleSource, security, "secret"));
                           }});
    }
    return entries;
}

/// The generated-program entries built the way the fuzzer's CompileMemo
/// builds them: each source parsed and analysed once, then built under every
/// standard option set from that one AST, in the order the standard defenses
/// first use the sets.  Code generation must leave the AST as it found it,
/// or a later key would hash differently from a fresh compile.
std::vector<std::string> shared_ast_lines() {
    std::vector<std::string> lines;
    const auto add_source = [&](const std::string& name, const std::string& source) {
        const cc::ParsedProgram program = cc::parse_program({source});
        for (const auto& o : standard_option_sets()) {
            lines.push_back(name + " " + cc::compiler_options_key(o) + " " +
                            image_digest(cc::build_program(program, o)));
        }
    };
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        add_source("fuzz_program" + std::to_string(seed), fuzz::generate_program(seed).render());
    }
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        add_source("fuzz_model" + std::to_string(seed),
                   fuzz::generate_model(seed).render().render());
    }
    return lines;
}

std::vector<std::string> read_golden() {
    const std::filesystem::path path =
        std::filesystem::path(SWSEC_IMAGE_GOLDEN_DIR) / "images.txt";
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        lines.push_back(line);
    }
    return lines;
}

/// Compares one pass's lines with the golden, reporting at most a few.
void expect_golden(const std::vector<std::string>& got, const std::vector<std::string>& golden,
                   const char* pass) {
    ASSERT_EQ(got.size(), golden.size()) << pass;
    int reported = 0;
    for (std::size_t i = 0; i < got.size() && reported < 5; ++i) {
        if (got[i] != golden[i]) {
            ADD_FAILURE() << pass << ": got '" << got[i] << "', golden '" << golden[i] << "'";
            ++reported;
        }
    }
}

TEST(ImageGolden, EveryImageMatchesColdWarmAndThreaded) {
    const std::vector<Entry> entries = golden_entries();
    const auto serial_pass = [&] {
        std::vector<std::string> lines;
        lines.reserve(entries.size());
        for (const auto& e : entries) {
            lines.push_back(e.line());
        }
        return lines;
    };

    core::clear_image_cache();
    const std::vector<std::string> cold = serial_pass();
    if (const char* out = std::getenv("SWSEC_IMAGE_GOLDEN_OUT")) {
        std::ofstream f(out);
        for (const auto& line : cold) {
            f << line << '\n';
        }
        GTEST_SKIP() << "wrote " << cold.size() << " golden lines to " << out;
    }
    const std::vector<std::string> golden = read_golden();
    ASSERT_FALSE(golden.empty()) << "missing " << SWSEC_IMAGE_GOLDEN_DIR << "/images.txt";
    expect_golden(cold, golden, "cold");
    expect_golden(serial_pass(), golden, "warm");

    // Eight threads interleave over the entries, so they race to fill each
    // option set's runtime memo entry at the same time.
    core::clear_image_cache();
    constexpr std::size_t kThreads = 8;
    std::vector<std::string> threaded(entries.size());
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < entries.size(); i += kThreads) {
                threaded[i] = entries[i].line();
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    expect_golden(threaded, golden, "threaded");

    // The same hashes from one AST per generated source: each line must equal
    // the golden line of its source and options key.
    std::map<std::string, std::string> by_entry; // "<source> <key>" -> line
    for (const auto& line : golden) {
        by_entry[line.substr(0, line.rfind(' '))] = line;
    }
    const std::vector<std::string> shared = shared_ast_lines();
    ASSERT_EQ(shared.size(), 50 * standard_option_sets().size());
    int reported = 0;
    for (const auto& line : shared) {
        const auto it = by_entry.find(line.substr(0, line.rfind(' ')));
        if (it == by_entry.end() || it->second != line) {
            ADD_FAILURE() << "shared AST: got '" << line << "', golden '"
                          << (it == by_entry.end() ? "<none>" : it->second) << "'";
            if (++reported == 5) {
                break;
            }
        }
    }
}

} // namespace
