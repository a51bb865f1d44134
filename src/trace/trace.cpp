#include "trace/trace.hpp"

#include "common/escape.hpp"
#include "common/rng.hpp"

namespace swsec::trace {

const char* check_origin_name(CheckOrigin o) noexcept {
    switch (o) {
    case CheckOrigin::None: return "none";
    case CheckOrigin::Canary: return "canary";
    case CheckOrigin::Bounds: return "bounds";
    case CheckOrigin::Fortify: return "fortify";
    case CheckOrigin::Memcheck: return "memcheck";
    case CheckOrigin::Dep: return "dep";
    case CheckOrigin::Pma: return "pma";
    case CheckOrigin::Sfi: return "sfi";
    case CheckOrigin::ShadowStack: return "shadow-stack";
    case CheckOrigin::Cfi: return "cfi";
    case CheckOrigin::Capability: return "capability";
    case CheckOrigin::Watchdog: return "watchdog";
    case CheckOrigin::FaultInjector: return "fault-injector";
    case CheckOrigin::AddressSanitizer: return "asan";
    }
    return "unknown";
}

const char* event_kind_name(EventKind k) noexcept {
    switch (k) {
    case EventKind::InsnRetired: return "insn";
    case EventKind::TrapRaised: return "trap";
    case EventKind::MemFault: return "mem-fault";
    case EventKind::SyscallEnter: return "sys-enter";
    case EventKind::SyscallExit: return "sys-exit";
    case EventKind::PmaEnter: return "pma-enter";
    case EventKind::PmaExit: return "pma-exit";
    case EventKind::FaultInjected: return "fault-injected";
    case EventKind::HeapAlloc: return "heap-alloc";
    case EventKind::HeapFree: return "heap-free";
    case EventKind::ModuleLoaded: return "module-load";
    }
    return "unknown";
}

namespace {

void append_hex32(std::string& out, std::uint32_t v) {
    static const char* hex = "0123456789abcdef";
    out += "\"0x";
    for (int shift = 28; shift >= 0; shift -= 4) {
        out += hex[(v >> shift) & 0xf];
    }
    out += '"';
}

} // namespace

std::string TraceEvent::to_json() const {
    std::string out;
    out.reserve(128 + detail.size());
    out += "{\"event\":\"";
    out += event_kind_name(kind);
    out += "\",\"step\":";
    out += std::to_string(step);
    out += ",\"pc\":";
    append_hex32(out, pc);
    out += ",\"module\":";
    out += std::to_string(module);
    out += ",\"mode\":\"";
    out += kernel ? "kernel" : "user";
    out += "\",\"origin\":\"";
    out += check_origin_name(origin);
    out += "\",\"code\":";
    out += std::to_string(code);
    out += ",\"a\":";
    append_hex32(out, a);
    out += ",\"b\":";
    append_hex32(out, b);
    out += ",\"detail\":\"";
    out += json_escape(detail);
    out += "\"}";
    return out;
}

std::string Counters::summary() const {
    std::string out;
    out += "instructions=" + std::to_string(instructions);
    out += " traps=" + std::to_string(traps);
    out += " mem_faults=" + std::to_string(mem_faults);
    out += " syscalls=" + std::to_string(syscalls);
    out += " pma_transitions=" + std::to_string(pma_transitions);
    out += " faults_injected=" + std::to_string(faults_injected);
    out += " heap_allocs=" + std::to_string(heap_allocs);
    out += " heap_frees=" + std::to_string(heap_frees);
    out += " dcache_hits=" + std::to_string(dcache_hits);
    out += " dcache_misses=" + std::to_string(dcache_misses);
    return out;
}

Tracer::Tracer(std::size_t capacity, bool eviction_digest)
    : capacity_(capacity == 0 ? 1 : capacity), eviction_digest_(eviction_digest) {
    ring_.reserve(capacity_);
}

void Tracer::fold_evicted(const TraceEvent& e) noexcept {
    std::uint64_t h = mix64(evicted_digest_, e.step);
    h = mix64(h, static_cast<std::uint64_t>(e.kind) |
                     (static_cast<std::uint64_t>(e.origin) << 8) |
                     (static_cast<std::uint64_t>(e.code) << 16) |
                     (static_cast<std::uint64_t>(e.kernel ? 1 : 0) << 24) |
                     (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.module)) << 32));
    h = mix64(h, (static_cast<std::uint64_t>(e.pc) << 32) | e.a);
    h = mix64(h, (static_cast<std::uint64_t>(e.b) << 32) | e.detail.size());
    for (const char c : e.detail) {
        h = mix64(h, static_cast<unsigned char>(c));
    }
    evicted_digest_ = h;
}

std::vector<TraceEvent> Tracer::events() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
        out.push_back(event(i));
    }
    return out;
}

std::string Tracer::to_jsonl() const {
    std::string out;
    for (std::size_t i = 0; i < size_; ++i) {
        out += event(i).to_json();
        out += '\n';
    }
    return out;
}

void Tracer::clear() noexcept {
    head_ = 0;
    size_ = 0;
    total_ = 0;
    evicted_digest_ = 0;
    counters_ = Counters{};
}

} // namespace swsec::trace
