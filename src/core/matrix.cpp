#include "core/matrix.hpp"

#include <algorithm>

#include "common/hexdump.hpp"
#include "core/image_cache.hpp"
#include "core/parallel.hpp"
#include "trace/trace.hpp"

namespace swsec::core {

std::vector<MatrixCell> run_matrix(std::uint64_t victim_seed, std::uint64_t attacker_seed,
                                   int jobs) {
    const auto& attacks = all_attacks();
    const auto& defenses = standard_defenses();
    // Pre-size and fill by index: completion order never affects the result.
    std::vector<MatrixCell> cells(attacks.size() * defenses.size());
    parallel_for(cells.size(), jobs, [&](std::size_t i) {
        const AttackKind kind = attacks[i / defenses.size()];
        const Defense& d = defenses[i % defenses.size()];
        MatrixCell& cell = cells[i];
        cell.attack = kind;
        cell.defense = d.name;
        cell.outcome = run_attack(kind, d, victim_seed, attacker_seed);
    });
    return cells;
}

std::string format_matrix(const std::vector<MatrixCell>& cells) {
    // Column per defense, row per attack.
    std::vector<std::string> defenses;
    std::vector<AttackKind> attacks;
    for (const auto& c : cells) {
        if (std::find(defenses.begin(), defenses.end(), c.defense) == defenses.end()) {
            defenses.push_back(c.defense);
        }
        if (std::find(attacks.begin(), attacks.end(), c.attack) == attacks.end()) {
            attacks.push_back(c.attack);
        }
    }
    const auto cell_text = [&](AttackKind a, const std::string& d) -> std::string {
        for (const auto& c : cells) {
            if (c.attack == a && c.defense == d) {
                return c.outcome.succeeded ? "YES" : vm::trap_name(c.outcome.trap.kind);
            }
        }
        return "-";
    };

    std::size_t row_w = 0;
    for (const AttackKind a : attacks) {
        row_w = std::max(row_w, attack_name(a).size());
    }
    std::vector<std::size_t> col_w;
    for (const auto& d : defenses) {
        std::size_t w = d.size();
        for (const AttackKind a : attacks) {
            w = std::max(w, cell_text(a, d).size());
        }
        col_w.push_back(w);
    }

    std::string out;
    out += std::string(row_w, ' ');
    for (std::size_t j = 0; j < defenses.size(); ++j) {
        out += "  " + defenses[j] + std::string(col_w[j] - defenses[j].size(), ' ');
    }
    out += "\n";
    for (const AttackKind a : attacks) {
        const std::string name = attack_name(a);
        out += name + std::string(row_w - name.size(), ' ');
        for (std::size_t j = 0; j < defenses.size(); ++j) {
            const std::string t = cell_text(a, defenses[j]);
            out += "  " + t + std::string(col_w[j] - t.size(), ' ');
        }
        out += "\n";
    }
    return out;
}

std::string matrix_cell_json(const MatrixCell& c) {
    const vm::Trap& t = c.outcome.trap;
    std::string out;
    out += "{\"attack\":\"" + attack_name(c.attack) + "\"";
    out += ",\"defense\":\"" + trace::json_escape(c.defense) + "\"";
    out += c.outcome.succeeded ? ",\"succeeded\":true" : ",\"succeeded\":false";
    out += ",\"trap\":\"" + vm::trap_name(t.kind) + "\"";
    out += ",\"origin\":\"";
    out += trace::check_origin_name(t.origin);
    out += "\",\"module\":" + std::to_string(t.module);
    out += ",\"mode\":\"";
    out += t.kernel ? "kernel" : "user";
    out += "\",\"ip\":\"" + hex32(t.ip) + "\"";
    out += ",\"addr\":\"" + hex32(t.addr) + "\"";
    // Raw ip/addr depend on the victim's ASLR draw; the load bias, the
    // text-relative offset and the line-table symbolization are the
    // draw-independent coordinates.  ip_off is null when the trap
    // landed outside text (injected stack shellcode, data execution).
    out += ",\"text_base\":\"" + hex32(c.outcome.text_base) + "\"";
    const bool in_text = t.ip >= c.outcome.text_base &&
                         t.ip - c.outcome.text_base < c.outcome.text_size;
    out += ",\"ip_off\":";
    out += in_text ? "\"" + hex32(t.ip - c.outcome.text_base) + "\"" : "null";
    out += ",\"sym\":\"" + trace::json_escape(c.outcome.trap_sym) + "\"";
    out += ",\"steps\":" + std::to_string(c.outcome.stats.instructions);
    out += ",\"note\":\"" + trace::json_escape(c.outcome.note) + "\"}";
    return out;
}

std::string matrix_cells_jsonl(const std::vector<MatrixCell>& cells) {
    std::string out;
    for (const auto& c : cells) {
        out += matrix_cell_json(c);
        out += "\n";
    }
    return out;
}

void add_platform_metrics(profile::Registry& reg, const profile::Labels& base,
                          const os::RunStats& stats) {
    reg.counter_add("victim_instructions_total", base, stats.instructions);
    reg.counter_add("dcache_hits_total", base, stats.dcache_hits);
    reg.counter_add("dcache_decodes_total", base, stats.dcache_decodes);
    reg.counter_add("syscalls_total", base, stats.syscalls);
    reg.counter_add("syscall_retries_total", base, stats.faults.retries);
    reg.counter_add("io_faults_injected_total", base, stats.faults.injected_failures);
    reg.counter_add("sbrk_calls_total", base, stats.heap.sbrk_calls);
    reg.gauge_max("heap_high_water_bytes", base, static_cast<double>(stats.heap.high_water));
    // vm.dispatch.*: which execution tier did the work (DESIGN.md §13).
    reg.counter_add("vm_dispatch_tier2_entries_total", base, stats.dispatch.tier2_entries);
    reg.counter_add("vm_dispatch_fast_steps_total", base, stats.dispatch.fast_steps);
    reg.counter_add("vm_dispatch_superinsns_retired_total", base,
                    stats.dispatch.superinsns_retired);
    reg.counter_add("vm_dispatch_deopts_total", base, stats.dispatch.deopts());
    // asan.*: shadow-memory sanitizer activity (DESIGN.md §15), zero unless
    // a run set sanitize_address.
    reg.counter_add("asan_shadow_poisons_total", base, stats.asan.shadow_poisons);
    reg.counter_add("asan_shadow_unpoisons_total", base, stats.asan.shadow_unpoisons);
    reg.counter_add("asan_interceptor_checks_total", base, stats.asan.interceptor_checks);
    reg.counter_add("asan_interceptor_traps_total", base, stats.asan.interceptor_traps);
}

void add_victim_metrics(profile::Registry& reg, const profile::Labels& base,
                        const std::vector<MatrixCell>& cells) {
    os::RunStats victims;
    for (const auto& c : cells) {
        victims += c.outcome.stats;
    }
    add_platform_metrics(reg, base, victims);
    reg.gauge_set("image_cache_images", base, static_cast<double>(image_cache_size()),
                  profile::Volatile::Yes);
    reg.gauge_set("image_cache_hits", base, static_cast<double>(image_cache_hits()),
                  profile::Volatile::Yes);
}

profile::Registry matrix_metrics(const std::vector<MatrixCell>& cells) {
    profile::Registry reg;
    const profile::Labels base = {{"harness", "matrix"}};
    add_victim_metrics(reg, base, cells);
    for (const auto& c : cells) {
        const AttackOutcome& o = c.outcome;
        reg.counter_add(o.succeeded ? "attacks_succeeded_total" : "attacks_blocked_total", base);
        // Per-defense verdicts: which configurations are holding the line.
        reg.counter_add(o.succeeded ? "attacks_succeeded_total" : "attacks_blocked_total",
                        {{"harness", "matrix"}, {"defense", c.defense}});
        // Trap latency: how many victim instructions each attack ran before
        // a countermeasure stopped it.  Succeeded cells never trapped, so
        // they stay out of the series; step counts are deterministic, so the
        // histogram is too.
        if (!o.succeeded) {
            reg.histogram_observe("matrix_trap_latency_steps",
                                  {{"harness", "matrix"}, {"attack", attack_name(c.attack)}},
                                  o.stats.instructions);
        }
    }
    reg.set_help("matrix_trap_latency_steps",
                 "Victim instructions retired before a defense trapped the attack");
    return reg;
}

} // namespace swsec::core
