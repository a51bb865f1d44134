// Quickstart: the swsec pipeline in five minutes.
//
// Compiles a MiniC program, runs it on the simulated 32-bit machine, shows
// its disassembly, then runs the same binary under the hardened profile
// (stack canaries + DEP + ASLR).
#include <cstdio>
#include <string>

#include "cc/compiler.hpp"
#include "common/hexdump.hpp"
#include "isa/disasm.hpp"
#include "os/process.hpp"

int main() {
    using namespace swsec;

    // 1. A MiniC program: an echo server with a checksum.
    const std::string source = R"(
        int checksum(char* buf, int n) {
          int sum = 0;
          for (int i = 0; i < n; i = i + 1) { sum = sum + buf[i]; }
          return sum;
        }
        int main() {
          char buf[64];
          int n = read(0, buf, 64);
          write(1, "echo: ", 6);
          write(1, buf, n);
          write(1, "\n", 1);
          print_int(checksum(buf, n));
          write(1, "\n", 1);
          return 0;
        }
    )";

    // 2. Compile (MiniC -> assembly -> object -> linked image).
    const objfmt::Image image = cc::compile_program({source}, cc::CompilerOptions::none());
    std::printf("compiled: %zu bytes of code, %llu bytes of data, %zu symbols\n",
                image.text.size(), static_cast<unsigned long long>(image.data_total_size()),
                image.symbols.size());

    // 3. Load and run with attacker-style I/O.
    os::Process p(image, os::SecurityProfile::none(), /*seed=*/42);
    p.feed_input("hello, swsec");
    const vm::RunResult r = p.run();
    std::printf("\nprogram output:\n%s", p.output().c_str());
    std::printf("terminated: %s after %llu instructions\n", r.trap.to_string().c_str(),
                static_cast<unsigned long long>(r.steps));

    // 4. Peek at the machine code of checksum() (Fig. 1(b) style).
    const auto& sym = image.symbol("checksum");
    const std::uint32_t addr = p.layout().text_base + sym.offset;
    std::printf("\nmachine code of checksum() at %s (first instructions):\n",
                hex32(addr).c_str());
    const auto code = p.machine().memory().raw_read(addr, 48);
    std::fputs(isa::format_listing(isa::disassemble(code, addr)).c_str(), stdout);

    // 5. Same binary, hardened platform.
    os::Process hardened(cc::compile_program({source}, cc::CompilerOptions::safe()),
                         os::SecurityProfile::hardened(), /*seed=*/43);
    hardened.feed_input("hello again");
    const vm::RunResult r2 = hardened.run();
    std::printf("\nunder canaries+bounds checks+DEP+ASLR: %s (%llu instructions, %+.1f%%)\n",
                r2.trap.to_string().c_str(), static_cast<unsigned long long>(r2.steps),
                100.0 * (static_cast<double>(r2.steps) / static_cast<double>(r.steps) - 1.0));
    return 0;
}
