// Experiment FIG1: the source-to-machine-code pipeline of Fig. 1.
//
// Measures every stage (lex, parse, compile, assemble, link, load) and the
// whole pipeline on the Fig. 1 server.  The machine's execution rate is
// bench_attack_matrix's BM_VmExecute.
#include <benchmark/benchmark.h>

#include "assembler/assembler.hpp"
#include "assembler/linker.hpp"
#include "cc/compiler.hpp"
#include "cc/lexer.hpp"
#include "cc/parser.hpp"
#include "cc/runtime.hpp"
#include "core/fig1.hpp"
#include "core/scenarios.hpp"
#include "os/process.hpp"

namespace {

using namespace swsec;

const std::string& server_src() {
    static const std::string src = core::scenarios::fig1_server(16);
    return src;
}

void BM_Lex(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(cc::lex(server_src()));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * server_src().size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(cc::parse(server_src()));
    }
}
BENCHMARK(BM_Parse);

void BM_CompileUnit(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(cc::compile(server_src(), cc::CompilerOptions::none()));
    }
}
BENCHMARK(BM_CompileUnit);

void BM_AssembleRuntime(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(assembler::assemble(cc::runtime_crt0_asm(), "crt0"));
    }
}
BENCHMARK(BM_AssembleRuntime);

void BM_LinkProgram(benchmark::State& state) {
    std::vector<objfmt::ObjectFile> objs;
    objs.push_back(assembler::assemble(cc::runtime_crt0_asm(), "crt0"));
    objs.push_back(cc::compile(cc::runtime_libc_minic(), cc::CompilerOptions::none(), "libc"));
    objs.push_back(cc::compile(server_src(), cc::CompilerOptions::none(), "u0"));
    for (auto _ : state) {
        benchmark::DoNotOptimize(assembler::link(objs));
    }
}
BENCHMARK(BM_LinkProgram);

void BM_LoadImage(benchmark::State& state) {
    const auto img = cc::compile_program({server_src()}, cc::CompilerOptions::none());
    for (auto _ : state) {
        os::Process p(img, os::SecurityProfile::none(), 1);
        benchmark::DoNotOptimize(p.layout().text_base);
    }
}
BENCHMARK(BM_LoadImage);

void BM_FullPipeline(benchmark::State& state) {
    for (auto _ : state) {
        const auto img = cc::compile_program({server_src()}, cc::CompilerOptions::none());
        os::Process p(img, os::SecurityProfile::none(), 1);
        p.feed_input("ABCDEFGHIJKLMNO");
        benchmark::DoNotOptimize(p.run());
    }
}
BENCHMARK(BM_FullPipeline);

void BM_Fig1SnapshotReport(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::make_fig1_snapshot());
    }
}
BENCHMARK(BM_Fig1SnapshotReport);

} // namespace

int main(int argc, char** argv) {
    // The figure itself, regenerated once per bench run.
    const auto snap = core::make_fig1_snapshot();
    std::printf("%s\n", snap.full_report.c_str());
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
