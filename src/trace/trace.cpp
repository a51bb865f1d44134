#include "trace/trace.hpp"

#include <utility>

#include "common/escape.hpp"

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

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_);
}

void Tracer::record(TraceEvent e) {
    switch (e.kind) {
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
    // Writes go round the ring in order from slot 0, so the write position
    // is at most one past the constructed slots.
    if (head_ == ring_.size()) [[unlikely]] {
        ring_.emplace_back(); // first write of this slot
    }
    ring_[head_] = std::move(e);
    if (++head_ == capacity_) {
        head_ = 0;
    }
    if (size_ < capacity_) {
        ++size_;
    }
    ++total_;
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
    counters_ = Counters{};
}

} // namespace swsec::trace
