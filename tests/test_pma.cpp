// Protected Module Architecture tests (Section IV, Figs. 2-4).
#include <gtest/gtest.h>

#include "cc/compiler.hpp"
#include "isa/disasm.hpp"
#include "os/process.hpp"
#include "pma/loader.hpp"
#include "pma/module.hpp"

namespace {

using swsec::cc::CompilerOptions;
using swsec::cc::ExternEnv;
using swsec::cc::Type;
using swsec::os::Process;
using swsec::os::SecurityProfile;
using swsec::pma::ModulePlacement;
using swsec::pma::ModuleSecurity;
using swsec::vm::TrapKind;

// Fig. 2: the secret module.
const char* kSecretModule = R"(
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

// Fig. 4: the variant that accepts a get_pin() callback.
const char* kSecretModuleFnPtr = R"(
    static int tries_left = 3;
    static int PIN = 1234;
    static int secret = 666;

    int get_secret(int get_pin()) {
      if (tries_left > 0) {
        if (PIN == get_pin()) {
          tries_left = 3;
          return secret;
        } else { tries_left = tries_left - 1; return 0; }
      } else { return 0; }
    }
)";

ExternEnv secret_externs(bool fn_ptr_variant) {
    ExternEnv e;
    const auto i = Type::int_type();
    if (fn_ptr_variant) {
        e["get_secret"] = Type::func(i, {Type::ptr_to(Type::func(i, {}))});
    } else {
        e["get_secret"] = Type::func(i, {i});
    }
    return e;
}

struct Fixture {
    swsec::objfmt::Image module_img;
    ModulePlacement place;
    Process process;
    swsec::pma::LoadedModule module;

    Fixture(const char* module_src, ModuleSecurity sec, const std::string& host_src,
            bool fn_ptr_variant, bool protect = true,
            const SecurityProfile& prof = SecurityProfile::none())
        : module_img(swsec::pma::build_module(module_src, sec, "secret")),
          process(swsec::cc::compile_program_with_objects(
                      {host_src}, CompilerOptions::none(),
                      {swsec::pma::make_import_stubs(module_img, place, {"get_secret"})},
                      secret_externs(fn_ptr_variant)),
                  prof, 7),
          module(swsec::pma::load_module(process.machine(), module_img, place, "secret",
                                         protect)) {}

    [[nodiscard]] std::uint32_t tries_left() {
        return process.machine().memory().raw_read32(module.addr_of("tries_left$secret"));
    }
};

TEST(Pma, CorrectPinReturnsSecret) {
    for (const ModuleSecurity sec : {ModuleSecurity::Insecure, ModuleSecurity::Secure}) {
        Fixture f(kSecretModule, sec, R"(
            int main() { return get_secret(1234); }
        )",
                  false);
        const auto r = f.process.run();
        EXPECT_TRUE(r.exited(666)) << r.trap.to_string();
        EXPECT_EQ(f.tries_left(), 3u);
    }
}

TEST(Pma, WrongPinDecrementsAndLocksOut) {
    for (const ModuleSecurity sec : {ModuleSecurity::Insecure, ModuleSecurity::Secure}) {
        Fixture f(kSecretModule, sec, R"(
            int main() {
              int i;
              for (i = 0; i < 5; i = i + 1) {
                if (get_secret(1111) != 0) { return 99; } /* must stay locked */
              }
              /* even the right PIN fails after three wrong tries */
              return get_secret(1234);
            }
        )",
                  false);
        const auto r = f.process.run();
        EXPECT_TRUE(r.exited(0)) << r.trap.to_string();
        EXPECT_EQ(f.tries_left(), 0u);
    }
}

TEST(Pma, HostCannotReadModuleData) {
    // A malicious host reads the PIN straight out of module memory.  With
    // protection installed this must trap (rule 1).
    const std::uint32_t pin_addr = []() {
        const auto img = swsec::pma::build_module(kSecretModule, ModuleSecurity::Insecure, "secret");
        ModulePlacement p;
        swsec::vm::Machine probe;
        return swsec::pma::load_module(probe, img, p, "secret", false).addr_of("PIN$secret");
    }();
    const std::string host = R"(
        int main() {
          int* p = (int*))" + std::to_string(pin_addr) + R"(;
          return *p;
        }
    )";
    {
        Fixture f(kSecretModule, ModuleSecurity::Insecure, host, false, /*protect=*/false);
        const auto r = f.process.run();
        EXPECT_TRUE(r.exited(1234)) << "without PMA the PIN leaks: " << r.trap.to_string();
    }
    {
        Fixture f(kSecretModule, ModuleSecurity::Insecure, host, false, /*protect=*/true);
        const auto r = f.process.run();
        EXPECT_EQ(r.trap.kind, TrapKind::PmaViolation) << r.trap.to_string();
    }
}

TEST(Pma, HostCannotWriteModuleData) {
    const std::uint32_t tries_addr = []() {
        const auto img = swsec::pma::build_module(kSecretModule, ModuleSecurity::Insecure, "secret");
        swsec::vm::Machine probe;
        return swsec::pma::load_module(probe, img, ModulePlacement{}, "secret", false)
            .addr_of("tries_left$secret");
    }();
    const std::string host = R"(
        int main() {
          int* p = (int*))" + std::to_string(tries_addr) + R"(;
          *p = 1000000;   /* unlimited brute-force tries */
          return 0;
        }
    )";
    Fixture f(kSecretModule, ModuleSecurity::Insecure, host, false, /*protect=*/true);
    const auto r = f.process.run();
    EXPECT_EQ(r.trap.kind, TrapKind::PmaViolation) << r.trap.to_string();
    EXPECT_EQ(f.tries_left(), 3u);
}

TEST(Pma, JumpIntoModuleMidFunctionTraps) {
    // Rule 3: entering anywhere but a designated entry point traps.
    const std::string host = R"(
        int main() {
          int (*evil)() = (int(*)()))" +
                             std::to_string(ModulePlacement{}.code_base + 2) + R"(;
          return evil();
        }
    )";
    // Host must parse a local function-pointer declarator with cast; use a
    // simpler formulation through an int variable instead.
    const std::string host2 = R"(
        int main() {
          int evil = )" + std::to_string(ModulePlacement{}.code_base + 2) + R"(;
          int (*f)() = (int(*)())evil;
          return f();
        }
    )";
    (void)host;
    (void)host2;
    // MiniC casts to function-pointer types are not in the grammar; pass the
    // address as an int parameter to a helper that calls it instead.
    const std::string host3 = R"(
        int call_at(int target) {
          int (*f)() = 0;
          int* slot = (int*)&f;
          *slot = target;
          return f();
        }
        int main() {
          return call_at()" + std::to_string(ModulePlacement{}.code_base + 2) + R"();
        }
    )";
    Fixture f(kSecretModule, ModuleSecurity::Insecure, host3, false, /*protect=*/true);
    const auto r = f.process.run();
    EXPECT_EQ(r.trap.kind, TrapKind::PmaViolation) << r.trap.to_string();
}

TEST(Pma, KernelAttackerDeniedByHardware) {
    Fixture f(kSecretModule, ModuleSecurity::Insecure, "int main() { return 0; }", false,
              /*protect=*/true);
    std::uint32_t v = 0;
    // Kernel-privilege read of module data is denied by the PMA hardware.
    EXPECT_FALSE(f.process.machine().kernel_read32(f.module.addr_of("PIN$secret"), v));
    EXPECT_FALSE(f.process.machine().kernel_write32(f.module.addr_of("tries_left$secret"), 99));
    // ...but unprotected memory is fair game for the kernel.
    EXPECT_TRUE(f.process.machine().kernel_read32(f.process.layout().data_base, v));
}

TEST(Pma, Fig4LegitimateCallbackWorksUnderSecureCompilation) {
    // The out-call / re-entry protocol: the module calls back into host code
    // to fetch the PIN, then returns the secret.
    const std::string host = R"(
        int my_get_pin() { return 1234; }
        int main() { return get_secret(my_get_pin); }
    )";
    Fixture f(kSecretModuleFnPtr, ModuleSecurity::Secure, host, true);
    const auto r = f.process.run();
    EXPECT_TRUE(r.exited(666)) << r.trap.to_string();
    EXPECT_EQ(f.tries_left(), 3u);
}

TEST(Pma, NaiveModuleCannotSupportLegitimateCallbacks) {
    // A naively compiled module calls the callback with a return address
    // *inside* the module; when the callback returns, re-entry at a
    // non-entry address violates rule 3.  This breakage is precisely the
    // motivation for the secure compilation scheme's re-entry points.
    const std::string host = R"(
        int my_get_pin() { return 4321; }
        int main() { return get_secret(my_get_pin); }
    )";
    Fixture f(kSecretModuleFnPtr, ModuleSecurity::Insecure, host, true);
    const auto r = f.process.run();
    EXPECT_EQ(r.trap.kind, TrapKind::PmaViolation) << r.trap.to_string();
}

TEST(Pma, Fig4EntryAbuseAttack) {
    // The attacker passes a pointer *into* the module as get_pin.  When the
    // module calls it, control lands on the "tries_left = 3" sequence: the
    // lockout counter is reset and brute force becomes possible.
    //
    // Against the insecurely compiled module the attack works; the secure
    // compiler's pointer sanitisation aborts it.
    for (const ModuleSecurity sec : {ModuleSecurity::Insecure, ModuleSecurity::Secure}) {
        // Build everything with a placeholder target first to locate the
        // gadget in loaded memory, then rebuild the host with the real one.
        const auto img = swsec::pma::build_module(kSecretModuleFnPtr, sec, "secret");
        const ModulePlacement place;

        // Locate the gadget by scanning the module as loaded (relocations
        // applied) in a scratch machine — the attacker has the module binary.
        swsec::vm::Machine scratch;
        const auto probe = swsec::pma::load_module(scratch, img, place, "secret", false);
        const std::uint32_t tries_addr = probe.addr_of("tries_left$secret");
        std::uint32_t gadget = 0;
        for (std::uint32_t a = place.code_base;
             a + 10 < place.code_base + static_cast<std::uint32_t>(img.text.size()); ++a) {
            if (scratch.memory().raw_read8(a) == 0xb8 && scratch.memory().raw_read8(a + 1) == 0x00 &&
                scratch.memory().raw_read32(a + 2) == tries_addr &&
                scratch.memory().raw_read8(a + 6) == 0x50) {
                gadget = a;
                break;
            }
        }
        ASSERT_NE(gadget, 0u) << "reset gadget not found";

        const std::string host = R"(
            int main() {
              /* exploit: pass a pointer *into the module* as the callback.
                 When the module invokes it, control lands on the
                 "tries_left = 3; return secret;" sequence: the lockout
                 counter resets and the secret comes back — all without
                 ever knowing the PIN. */
              return get_secret()" + std::to_string(gadget) + R"();
            }
        )";
        // get_secret takes a function pointer; pass the gadget as int.
        swsec::cc::ExternEnv ext;
        ext["get_secret"] = Type::func(Type::int_type(), {Type::int_type()});
        Process proc(swsec::cc::compile_program_with_objects(
                         {host}, CompilerOptions::none(),
                         {swsec::pma::make_import_stubs(img, place, {"get_secret"})}, ext),
                     SecurityProfile::none(), 7);
        const auto mod = swsec::pma::load_module(proc.machine(), img, place, "secret", true);
        const auto r = proc.run();
        const std::uint32_t tries =
            proc.machine().memory().raw_read32(mod.addr_of("tries_left$secret"));
        if (sec == ModuleSecurity::Insecure) {
            EXPECT_TRUE(r.exited(666)) << "attack must leak the secret: " << r.trap.to_string();
            EXPECT_EQ(tries, 3u) << "attack must have reset the lockout counter";
        } else {
            EXPECT_EQ(r.trap.kind, TrapKind::Abort)
                << "sanitisation must abort the attack: " << r.trap.to_string();
        }
    }
}

// ---- machine-code callbacks against the out-call protocol -----------------
// The callee of a secure out-call is host code, and under the paper's
// machine-code attacker host code may do anything the machine allows: here
// the test plays it, setting registers and host memory and jumping, when
// the module's out-call reaches the host's callback.

using swsec::isa::Reg;

/// Step `m` until its ip is `target` (or it traps).
void run_to(swsec::vm::Machine& m, std::uint32_t target) {
    while (m.ip() != target && !m.trap().is_set()) {
        m.step();
    }
}

const char* kPinHost = R"(
    int my_get_pin() { return 1234; }
    int main() { return get_secret(my_get_pin); }
)";

TEST(Pma, ForgedFrameFromCallbackCannotReachTheSecret) {
    // The callback returns the wrong PIN to the legitimate re-entry point
    // with BP aimed at two frames forged in host stack memory.  If the
    // module resumed in that frame, its epilogue would return first into
    // its own "return secret" sequence (internal control flow the PMA
    // allows) and then out to crt0's exit with r0 = 666.
    Fixture f(kSecretModuleFnPtr, ModuleSecurity::Secure, kPinHost, true);
    swsec::vm::Machine& m = f.process.machine();
    auto& mem = m.memory();
    const std::uint32_t secret_addr = f.module.addr_of("secret$secret");
    std::uint32_t gadget = 0; // movi r0, &secret: the start of "return secret"
    for (std::uint32_t a = f.place.code_base;
         a + 6 < f.place.code_base + static_cast<std::uint32_t>(f.module_img.text.size()); ++a) {
        if (mem.raw_read8(a) == 0xb8 && mem.raw_read8(a + 1) == 0x00 &&
            mem.raw_read32(a + 2) == secret_addr) {
            gadget = a;
            break;
        }
    }
    ASSERT_NE(gadget, 0u) << "return-secret sequence not found";

    run_to(m, f.process.addr_of("main"));
    const std::uint32_t exit_with_r0 = mem.raw_read32(m.reg(Reg::Sp)); // after `call main`
    run_to(m, f.process.addr_of("my_get_pin"));
    ASSERT_FALSE(m.trap().is_set()) << m.trap().to_string();
    const std::uint32_t sp = m.reg(Reg::Sp);
    const std::uint32_t reentry = mem.raw_read32(sp);
    const std::uint32_t frames = sp - 64;
    mem.raw_write32(frames, frames + 8); // frame 1: saved BP -> frame 2
    mem.raw_write32(frames + 4, gadget); //          return -> "return secret"
    mem.raw_write32(frames + 8, 0);      // frame 2: saved BP
    mem.raw_write32(frames + 12, exit_with_r0);
    m.set_reg(Reg::Bp, frames);
    m.set_reg(Reg::R0, 1); // the wrong PIN
    m.set_reg(Reg::Sp, sp + 4);
    m.set_ip(reentry);
    const auto r = m.run(100000);
    EXPECT_FALSE(r.exited(666)) << "the forged frame leaked the secret";
    EXPECT_TRUE(r.exited(0)) << r.trap.to_string();
    EXPECT_EQ(f.tries_left(), 2u) << "one wrong PIN, counted once";
}

TEST(Pma, StaleReentryAbortsWithoutTouchingTheModule) {
    // After get_secret has returned, no out-call is outstanding, so a jump
    // to the re-entry point its callback used must not run module code.
    Fixture f(kSecretModuleFnPtr, ModuleSecurity::Secure, kPinHost, true);
    swsec::vm::Machine& m = f.process.machine();
    run_to(m, f.process.addr_of("main"));
    const std::uint32_t exit_with_r0 = m.memory().raw_read32(m.reg(Reg::Sp));
    run_to(m, f.process.addr_of("my_get_pin"));
    const std::uint32_t reentry = m.memory().raw_read32(m.reg(Reg::Sp));
    run_to(m, exit_with_r0); // main returned get_secret's 666
    ASSERT_EQ(m.reg(Reg::R0), 666u) << m.trap().to_string();
    ASSERT_EQ(f.tries_left(), 3u);
    m.set_reg(Reg::R0, 1); // a wrong PIN, as if the callback returned it again
    m.set_ip(reentry);
    const auto r = m.run(100000);
    EXPECT_EQ(r.trap.kind, TrapKind::Abort) << r.trap.to_string();
    EXPECT_EQ(r.trap.origin, swsec::trace::CheckOrigin::Pma) << r.trap.to_string();
    EXPECT_EQ(f.tries_left(), 3u) << "the stale re-entry decremented the counter";
}

TEST(Pma, EntryWithTheCallerStackInsideTheModuleAborts) {
    // With one try left, host code points SP four bytes below the PIN and
    // jumps to the entry stub.  If the stub read its window there, the
    // module would take its own PIN as the argument, reset tries_left to 3
    // and compute 666 in R0, which the kernel sees at the fault that the
    // stub's return through module data then raises.
    Fixture f(kSecretModule, ModuleSecurity::Secure, "int main() { return 0; }", false);
    swsec::vm::Machine& m = f.process.machine();
    run_to(m, f.process.addr_of("main"));
    m.memory().raw_write32(f.module.addr_of("tries_left$secret"), 1);
    m.set_reg(Reg::Sp, f.module.addr_of("PIN$secret") - 4);
    m.set_ip(f.module.addr_of("get_secret"));
    const auto r = m.run(100000);
    EXPECT_EQ(r.trap.kind, TrapKind::Abort) << r.trap.to_string();
    EXPECT_EQ(r.trap.origin, swsec::trace::CheckOrigin::Pma) << r.trap.to_string();
    EXPECT_NE(m.reg(Reg::R0), 666u);
    EXPECT_EQ(f.tries_left(), 1u) << "the module ran on a window inside itself";
}

TEST(Pma, OutCallLeavesOnlySpAndTheTargetInRegisters) {
    // At the host callback the register file holds nothing of the module:
    // not its last temporary (tries_left in Fig. 4, 3 * secret in the
    // second module), its frame pointer or a data address.
    const char* kTemporaryModule = R"(
        static int secret = 666;
        int get_secret(int get_pin()) {
          int s = secret * 3;
          return get_pin() + s;
        }
    )";
    for (const auto& [module_src, exit_code] :
         {std::pair{kSecretModuleFnPtr, 666}, std::pair{kTemporaryModule, 1234 + 1998}}) {
        Fixture f(module_src, ModuleSecurity::Secure, kPinHost, true);
        swsec::vm::Machine& m = f.process.machine();
        run_to(m, f.process.addr_of("my_get_pin"));
        ASSERT_FALSE(m.trap().is_set()) << m.trap().to_string();
        for (const Reg r : {Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R7,
                            Reg::Bp}) {
            EXPECT_EQ(m.reg(r), 0u) << swsec::isa::reg_name(r);
        }
        EXPECT_EQ(m.reg(Reg::R6), m.ip()); // the jump target
        const auto r = m.run(100000);
        EXPECT_TRUE(r.exited(exit_code)) << r.trap.to_string();
    }
}

} // namespace
