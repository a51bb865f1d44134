// Machine-wide observability: typed trace events, per-run counters and a
// JSONL exporter.
//
// The paper's whole argument turns on *attributing* behaviour: which
// instruction smashed the stack, which check (canary/DEP/PMA/...) fired,
// which module was executing when a trap landed.  This layer is the software
// analogue of the branch-monitoring hardware in the CFI literature: a
// low-overhead ring buffer of TraceEvents that every platform layer
// (vm::Machine, os::Kernel, the fault injector probes, harnesses) can emit
// into, plus aggregate Counters for the run.
//
// Design rules the rest of the tree relies on:
//
//  * The event stream is part of the machine's *observable semantics*: two
//    runs that execute identically must emit byte-identical JSONL, whether
//    the decode cache is on or off and whether a sweep ran serial or with
//    --jobs N.  Anything that may differ between equivalent executions
//    (decode-cache hit rates) lives only in Counters, never in events.
//  * Like the monitoring hardware it models, an attached tracer does not
//    change which engine runs: the VM's fused tier-2 loop has a traced
//    instantiation that writes one InsnRetired per architectural
//    instruction (one per component of a fused pair), exactly the events
//    its observed loop writes.  A detached tracer costs the engine nothing
//    (run() picks the untraced instantiation); every other emission site
//    is guarded by a null pointer check, one predictable branch — the
//    disabled-tracer overhead budget is <= 5% on the attack-matrix bench.
//  * trace depends only on common.  The VM, OS and harness layers all sit
//    above it; trap kinds and syscall numbers are carried as raw codes with
//    the emitting layer supplying the human-readable name in `detail`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/escape.hpp"

namespace swsec::trace {

/// Which countermeasure (or platform mechanism) a trap/event originated
/// from — the provenance taxonomy.  `None` means "no check involved"
/// (normal termination, plain segfault on an unprotected platform).
enum class CheckOrigin : std::uint8_t {
    None = 0,
    Canary,        // compiler-inserted stack canary compare
    Bounds,        // compiler-inserted array bounds check
    Fortify,       // fortified read capacity check
    Memcheck,      // run-time poison-map checker (ASan analogue)
    Dep,           // W^X fetch permission (hardware/OS)
    Pma,           // protected-module access-control rules
    Sfi,           // software-fault-isolation verifier/rewriter
    ShadowStack,   // hardware shadow stack mismatch
    Cfi,           // coarse CFI indirect-branch target check
    Capability,    // capability-machine bounds/permission check
    Watchdog,      // step-budget watchdog (OutOfGas)
    FaultInjector, // injected platform fault (power cut etc.)
    AddressSanitizer, // compiled shadow-memory redzone check / kernel interceptor
};

[[nodiscard]] const char* check_origin_name(CheckOrigin o) noexcept;

/// Typed trace events.  One enumerator per hook point in the platform.
enum class EventKind : std::uint8_t {
    InsnRetired = 0, // an instruction completed without trapping
    TrapRaised,      // the machine stopped (or an access faulted): code = TrapKind
    MemFault,        // non-trapping denied access (e.g. PMA-denied kernel read)
    SyscallEnter,    // code = syscall number; a/b = r0/r1 at entry
    SyscallExit,     // code = syscall number; a = r0 at exit
    PmaEnter,        // execution entered protected module `module`
    PmaExit,         // execution left protected module `module`
    FaultInjected,   // a scheduled fault fired: code = fault::FaultClass
    HeapAlloc,       // program break grew: a = old brk, b = bytes
    HeapFree,        // program break shrank: a = new brk, b = bytes
    ModuleLoaded,    // loader placed the image: pc = text base, a = data
                     // base, b = stack top.  First event of a traced run;
                     // carrying the load bias in-stream is what makes raw
                     // PCs from two ASLR draws comparable after the fact.
};

[[nodiscard]] const char* event_kind_name(EventKind k) noexcept;

/// One trace record.  Fixed numeric fields keep the ring buffer cheap; the
/// optional `detail` string is only populated for rare events (traps,
/// injected faults), never on the per-instruction hot path.
struct TraceEvent {
    EventKind kind = EventKind::InsnRetired;
    std::uint64_t step = 0;   // instructions retired when the event fired
    std::uint32_t pc = 0;     // instruction pointer at emission
    std::int32_t module = -1; // protected-module id, -1 = unprotected memory
    bool kernel = false;      // emitted while servicing a syscall
    CheckOrigin origin = CheckOrigin::None;
    std::uint8_t code = 0;    // trap kind / syscall number / fault class
    std::uint32_t a = 0;      // event-specific (address, register, size)
    std::uint32_t b = 0;      // event-specific (value, bit index, size)
    std::string detail;       // human-readable name/context (rare events only)

    /// One JSON object, fixed key order, no trailing newline.
    [[nodiscard]] std::string to_json() const;
};

/// Aggregate per-run tallies.  Counters may legitimately differ between
/// equivalent executions (decode-cache hits); they are therefore reported
/// separately and never serialised into the event stream.
struct Counters {
    std::uint64_t instructions = 0;
    std::uint64_t traps = 0;
    std::uint64_t mem_faults = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t pma_transitions = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t heap_allocs = 0;
    std::uint64_t heap_frees = 0;
    std::uint64_t dcache_hits = 0;
    std::uint64_t dcache_misses = 0;

    [[nodiscard]] std::string summary() const;
};

/// Fixed-capacity ring buffer of TraceEvents plus Counters.  When the
/// buffer is full the oldest event is dropped (and counted) — a long run
/// keeps its tail, which is where the trap provenance lives.  The capacity
/// is allocated once, and a slot is constructed the first time it is
/// written, so a short run pays only for the events it records.
///
/// A tracer built with kEvictionDigest also folds every event it drops into
/// a 64-bit digest of all its fields, `detail` included, so two runs whose
/// tails agree can still be told apart by what they evicted.  The fold
/// costs a few hashes per dropped event, so only the comparison oracles
/// turn it on.
class Tracer {
public:
    static constexpr std::size_t kDefaultCapacity = 65536;
    /// Constructor flag: keep evicted_digest().
    static constexpr bool kEvictionDigest = true;

    explicit Tracer(std::size_t capacity = kDefaultCapacity, bool eviction_digest = false);

    void record(TraceEvent e) {
        count(e.kind);
        slot() = std::move(e);
    }
    /// The engine's per-instruction InsnRetired event, written into its
    /// ring slot in place: no temporary event, and the slot's `detail` is
    /// emptied, keeping its storage, rather than replaced.  Forced inline
    /// (compilers without the attribute ignore it): the engine calls it
    /// from every handler of two loop instantiations, more sites than the
    /// compiler's inlining budget covers on its own.
    [[gnu::always_inline]] void retire(std::uint64_t step, std::uint32_t pc, std::int32_t module,
                                       std::uint8_t opcode) {
        ++counters_.instructions;
        TraceEvent& e = slot();
        e.kind = EventKind::InsnRetired;
        e.step = step;
        e.pc = pc;
        e.module = module;
        e.kernel = false;
        e.origin = CheckOrigin::None;
        e.code = opcode;
        e.a = 0;
        e.b = 0;
        e.detail.clear();
    }
    /// Counters-only decode-cache tally (never emits an event: the event
    /// stream must be identical with the cache on or off).
    void count_dcache(bool hit) noexcept {
        if (hit) {
            ++counters_.dcache_hits;
        } else {
            ++counters_.dcache_misses;
        }
    }
    /// `n` decode-cache hits at once: the engine's tier 2 serves every
    /// instruction it retires from a built slot and credits them per exit.
    void count_dcache_hits(std::uint64_t n) noexcept { counters_.dcache_hits += n; }

    [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
    /// Events in emission order (oldest first).
    [[nodiscard]] std::vector<TraceEvent> events() const;
    /// Number of events held, and the i-th oldest (i < size()) read in
    /// place: event(i) == events()[i].
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] const TraceEvent& event(std::size_t i) const noexcept {
        const std::size_t slot = head_ + capacity_ - size_ + i; // < 2 * capacity_
        return ring_[slot < capacity_ ? slot : slot - capacity_];
    }
    [[nodiscard]] std::uint64_t total_recorded() const noexcept { return total_; }
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return total_ - static_cast<std::uint64_t>(size_);
    }
    /// Digest of every dropped event in drop order; 0 while none was
    /// dropped, and always 0 without kEvictionDigest.
    [[nodiscard]] std::uint64_t evicted_digest() const noexcept { return evicted_digest_; }

    /// The whole buffer as JSONL (one event per line, oldest first).
    [[nodiscard]] std::string to_jsonl() const;

    /// Forget every event, counter and the eviction digest.  The slots
    /// already constructed are kept and overwritten by later records.
    void clear() noexcept;

private:
    void count(EventKind k) noexcept {
        switch (k) {
        case EventKind::InsnRetired: ++counters_.instructions; break;
        case EventKind::TrapRaised: ++counters_.traps; break;
        case EventKind::MemFault: ++counters_.mem_faults; break;
        case EventKind::SyscallEnter: ++counters_.syscalls; break;
        case EventKind::SyscallExit: break;
        case EventKind::PmaEnter:
        case EventKind::PmaExit: ++counters_.pma_transitions; break;
        case EventKind::FaultInjected: ++counters_.faults_injected; break;
        case EventKind::HeapAlloc: ++counters_.heap_allocs; break;
        case EventKind::HeapFree: ++counters_.heap_frees; break;
        case EventKind::ModuleLoaded: break;
        }
    }
    /// The slot the next event goes to, with the ring advanced past it.
    /// Writes go round the ring in order from slot 0, so until the ring is
    /// full the write position is at most one past the constructed slots;
    /// once it is full, each write evicts the oldest event.
    TraceEvent& slot() {
        if (size_ < capacity_) {
            ++size_;
            if (head_ == ring_.size()) [[unlikely]] {
                ring_.emplace_back(); // first write of this slot
            }
        } else if (eviction_digest_) {
            fold_evicted(ring_[head_]);
        }
        TraceEvent& e = ring_[head_];
        if (++head_ == capacity_) {
            head_ = 0;
        }
        ++total_;
        return e;
    }
    void fold_evicted(const TraceEvent& e) noexcept;

    std::vector<TraceEvent> ring_; // constructed slots; capacity_ reserved
    std::size_t capacity_;
    std::size_t head_ = 0; // next write position
    std::size_t size_ = 0;
    std::uint64_t total_ = 0;
    bool eviction_digest_ = false;
    std::uint64_t evicted_digest_ = 0;
    Counters counters_;
};

/// Escape a string for embedding in a JSON value: the one escaper every
/// JSON writer in the repo shares (common/escape.hpp), so the escaping
/// rules cannot drift per call site.
using swsec::json_escape;

} // namespace swsec::trace
