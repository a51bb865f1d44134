// MiniC compiler tests: language semantics end-to-end (compile + execute),
// semantic error reporting, and the hardening transformations.
#include <gtest/gtest.h>

#include "cc/analyzer.hpp"
#include "cc/compiler.hpp"
#include "cc/parser.hpp"
#include "common/error.hpp"
#include "os/process.hpp"

namespace {

using namespace swsec;
using cc::CompilerOptions;
using os::Process;
using os::SecurityProfile;

/// Compile+run `body` inside main() and return the exit code.
std::int32_t run_main(const std::string& src, const std::string& input = {},
                      const CompilerOptions& opts = CompilerOptions::none()) {
    Process p(cc::compile_program({src}, opts), SecurityProfile::none(), 7);
    if (!input.empty()) {
        p.feed_input(input);
    }
    const auto r = p.run();
    EXPECT_EQ(r.trap.kind, vm::TrapKind::Exit) << r.trap.to_string();
    return r.trap.code;
}

// --- expressions -----------------------------------------------------------

TEST(MiniC, ArithmeticPrecedence) {
    EXPECT_EQ(run_main("int main() { return 2 + 3 * 4; }"), 14);
    EXPECT_EQ(run_main("int main() { return (2 + 3) * 4; }"), 20);
    EXPECT_EQ(run_main("int main() { return 17 / 5; }"), 3);
    EXPECT_EQ(run_main("int main() { return 17 % 5; }"), 2);
    EXPECT_EQ(run_main("int main() { return -17 / 5; }"), -3);
    EXPECT_EQ(run_main("int main() { return 1 << 10; }"), 1024);
    EXPECT_EQ(run_main("int main() { return -16 >> 2; }"), -4); // arithmetic shift
    EXPECT_EQ(run_main("int main() { return (0xff & 0x0f) | 0x30; }"), 0x3f);
    EXPECT_EQ(run_main("int main() { return 5 ^ 3; }"), 6);
    EXPECT_EQ(run_main("int main() { return ~0; }"), -1);
    EXPECT_EQ(run_main("int main() { return !0 + !7; }"), 1);
}

TEST(MiniC, ComparisonOperators) {
    EXPECT_EQ(run_main("int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3); }"), 3);
    EXPECT_EQ(run_main("int main() { return (1 == 1) + (1 != 1); }"), 1);
    EXPECT_EQ(run_main("int main() { return -1 < 1; }"), 1); // signed compare
}

TEST(MiniC, ShortCircuitEvaluation) {
    // The right operand must not run when the left decides.
    EXPECT_EQ(run_main(R"(
        int calls = 0;
        int bump() { calls = calls + 1; return 1; }
        int main() {
          int a = 0 && bump();
          int b = 1 || bump();
          return calls * 10 + a + b;
        }
    )"),
              1);
    EXPECT_EQ(run_main(R"(
        int main() { return (1 && 2) + (0 || 0); }
    )"),
              1);
}

TEST(MiniC, IncrementDecrement) {
    EXPECT_EQ(run_main("int main() { int x = 5; return x++ * 10 + x; }"), 56);
    EXPECT_EQ(run_main("int main() { int x = 5; return ++x * 10 + x; }"), 66);
    EXPECT_EQ(run_main("int main() { int x = 5; return x-- * 10 + x; }"), 54);
    EXPECT_EQ(run_main(R"(
        int main() {
          int a[3];
          a[0] = 1; a[1] = 2; a[2] = 3;
          int* p = a;
          int first = *p++;
          return first * 10 + *p;   /* pointer ++ steps by 4 */
        }
    )"),
              12);
}

TEST(MiniC, CompoundAssignment) {
    EXPECT_EQ(run_main("int main() { int x = 10; x += 5; x -= 3; return x; }"), 12);
}

TEST(MiniC, SizeofIsFolded) {
    EXPECT_EQ(run_main("int main() { return sizeof(int) + sizeof(char) + sizeof(int*); }"), 9);
    EXPECT_EQ(run_main("int main() { char buf[40]; return sizeof(buf); }"), 40);
    EXPECT_EQ(run_main("int main() { int x = 3; return sizeof(x); }"), 4);
}

TEST(MiniC, CharSemantics) {
    EXPECT_EQ(run_main("int main() { return 'A'; }"), 65);
    EXPECT_EQ(run_main("int main() { char c = 300; return c; }"), 44); // truncated to byte
    EXPECT_EQ(run_main("int main() { return (char)(65 + 256); }"), 65);
    EXPECT_EQ(run_main(R"(
        int main() { char s[4]; s[0] = 'o'; s[1] = 'k'; s[2] = 0; return strlen(s); }
    )"),
              2);
}

// --- control flow ------------------------------------------------------------

TEST(MiniC, Loops) {
    EXPECT_EQ(run_main(R"(
        int main() {
          int sum = 0;
          for (int i = 1; i <= 10; i = i + 1) { sum = sum + i; }
          return sum;
        }
    )"),
              55);
    EXPECT_EQ(run_main(R"(
        int main() {
          int n = 0;
          while (n < 100) { n = n + 7; }
          return n;
        }
    )"),
              105);
    EXPECT_EQ(run_main(R"(
        int main() {
          int found = 0;
          for (int i = 0; i < 100; i = i + 1) {
            if (i == 13) { found = i; break; }
          }
          return found;
        }
    )"),
              13);
    EXPECT_EQ(run_main(R"(
        int main() {
          int evens = 0;
          for (int i = 0; i < 10; i = i + 1) {
            if (i % 2) { continue; }
            evens = evens + 1;
          }
          return evens;
        }
    )"),
              5);
}

TEST(MiniC, NestedScopesShadow) {
    EXPECT_EQ(run_main(R"(
        int main() {
          int x = 1;
          { int x = 2; { int x = 3; } x = x + 10; }
          return x;
        }
    )"),
              1);
}

// --- functions & pointers -------------------------------------------------------

TEST(MiniC, RecursionAndMutualRecursion) {
    EXPECT_EQ(run_main(R"(
        int is_odd(int n);
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        int main() { return is_even(10) * 10 + is_odd(7); }
    )"),
              11);
}

TEST(MiniC, PointerArithmeticScaling) {
    EXPECT_EQ(run_main(R"(
        int main() {
          int a[4];
          a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
          int* p = a + 1;
          int* q = &a[3];
          return *p + (int)(q - p);   /* 20 + 2 elements apart */
        }
    )"),
              22);
    EXPECT_EQ(run_main(R"(
        int main() {
          char s[8];
          strcpy(s, "abc");
          char* p = s;
          p = p + 2;
          return *p;
        }
    )"),
              'c');
}

TEST(MiniC, AddressOfAndDeref) {
    EXPECT_EQ(run_main(R"(
        void set(int* p, int v) { *p = v; }
        int main() { int x = 0; set(&x, 31); return x + 11; }
    )"),
              42);
}

TEST(MiniC, FunctionPointerDeclaratorForms) {
    EXPECT_EQ(run_main(R"(
        int twice(int x) { return 2 * x; }
        int call1(int (*f)(int), int v) { return f(v); }
        int call2(int f(int), int v) { return f(v); }   /* Fig. 4 style */
        int main() { return call1(twice, 10) + call2(twice, 1); }
    )"),
              22);
}

TEST(MiniC, GlobalInitialisersAndStatics) {
    EXPECT_EQ(run_main(R"(
        int a = 40;
        static int b = 2;
        char c = 'x';
        char msg[8] = "hey";
        int main() { return a + b + (msg[0] == 'h') + (c == 'x') - 2; }
    )"),
              42);
}

TEST(MiniC, StringInitialiserOnLocal) {
    EXPECT_EQ(run_main(R"(
        int main() {
          char buf[16] = "swsec";
          return strlen(buf) + buf[4];
        }
    )"),
              5 + 'c');
}

TEST(MiniC, IntPointerCastsAreUnsafeByDesign) {
    EXPECT_EQ(run_main(R"(
        int target = 7;
        int main() {
          int addr = (int)&target;
          int* p = (int*)addr;
          *p = 42;
          return target;
        }
    )"),
              42);
}

// --- semantic errors --------------------------------------------------------------

TEST(MiniCErrors, UndeclaredIdentifier) {
    EXPECT_THROW((void)cc::compile("int main() { return nope; }", {}), ParseError);
}

TEST(MiniCErrors, ArityMismatch) {
    EXPECT_THROW((void)cc::compile("int f(int a) { return a; } int main() { return f(); }", {}),
                 ParseError);
    EXPECT_THROW((void)cc::compile("int f(int a) { return a; } int main() { return f(1, 2); }", {}),
                 ParseError);
}

TEST(MiniCErrors, CallingNonFunction) {
    EXPECT_THROW((void)cc::compile("int main() { int x = 1; return x(); }", {}), ParseError);
}

TEST(MiniCErrors, AssignToArray) {
    EXPECT_THROW((void)cc::compile("int main() { int a[4]; int b[4]; a = b; return 0; }", {}),
                 ParseError);
}

TEST(MiniCErrors, BreakOutsideLoop) {
    EXPECT_THROW((void)cc::compile("int main() { break; }", {}), ParseError);
}

TEST(MiniCErrors, VoidValueUse) {
    EXPECT_THROW((void)cc::compile("void f() {} int main() { return 1 + f(); }", {}), ParseError);
}

TEST(MiniCErrors, RedefinitionInSameScope) {
    EXPECT_THROW((void)cc::compile("int main() { int x = 1; int x = 2; return x; }", {}),
                 ParseError);
}

TEST(MiniCErrors, DerefNonPointer) {
    EXPECT_THROW((void)cc::compile("int main() { int x = 1; return *x; }", {}), ParseError);
}

TEST(MiniCErrors, ReturnValueFromVoid) {
    EXPECT_THROW((void)cc::compile("void f() { return 1; } int main() { return 0; }", {}),
                 ParseError);
}

TEST(MiniCErrors, ErrorsCarryLineNumbers) {
    try {
        (void)cc::compile("int main() {\n  return nope;\n}", {});
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
    }
}

/// The line of the ParseError that compiling `src` raises, or -1.
int parse_error_line(const std::string& src) {
    try {
        (void)cc::compile_program({src}, {});
    } catch (const ParseError& e) {
        return e.line();
    }
    return -1;
}

TEST(MiniCErrors, OversizedLiteralsAndArraysAreErrors) {
    // 4294967297 used to truncate to a 1-byte array; 1073741825 ints used to
    // wrap Type::size() to 4 bytes.
    EXPECT_EQ(parse_error_line("int x;\nchar g[4294967297];\nint main() { return 0; }"), 2);
    EXPECT_EQ(parse_error_line("int x;\nint g[1073741825];\nint main() { return 0; }"), 2);
    EXPECT_EQ(parse_error_line("int main() {\n  return 99999999999999999999;\n}"), 2);
    EXPECT_EQ(parse_error_line("int main() {\n  return sizeof(int[1073741825]);\n}"), 2);
    // A 2 GB global fits the type system but not an image section.
    EXPECT_THROW((void)cc::compile_program({"char g[2000000000]; int main() { return 0; }"}, {}),
                 ParseError);
    // Literals up to 0xFFFFFFFF keep their int32 wrap.
    EXPECT_EQ(run_main("int main() { return 0xFFFFFFFF == -1; }"), 1);
    EXPECT_EQ(run_main("int main() { return 4294967295 + 2; }"), 1);
}

/// A hostile nesting shape: the source at `n` repetitions.  Each repetition
/// costs one level of cc::kMaxNesting (of parser recursion, tree height or
/// both).
struct NestingShape {
    const char* name;
    std::string (*source)(int n);
};

std::string repeat(const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) {
        out += s;
    }
    return out;
}

const NestingShape kNestingShapes[] = {
    {"parentheses",
     [](int n) { return "int main() { return " + repeat("(", n) + "1" + repeat(")", n) + "; }"; }},
    {"calls",
     [](int n) {
         return "int f(int x) { return x; }\nint main() { return " + repeat("f(", n) + "1" +
                repeat(")", n) + "; }";
     }},
    {"blocks",
     [](int n) { return "int main() { " + repeat("{", n) + repeat("}", n) + " return 0; }"; }},
    {"sum", [](int n) { return "int main() { return 1" + repeat("+1", n) + "; }"; }},
    {"else-if",
     [](int n) {
         return "int main() { int x = 0;\nif (x) x = 1;" + repeat(" else if (x) x = 1;", n) +
                "\nreturn x; }";
     }},
    {"minus", [](int n) { return "int main() { return " + repeat("- ", n) + "1; }"; }},
    {"pointer", [](int n) { return "int main() { int " + repeat("*", n) + "p; return 0; }"; }},
    {"parameters",
     [](int n) {
         return "int f(" + repeat("int a(", n) + repeat(")", n) +
                ") { return 0; }\nint main() { return 0; }";
     }},
};

/// Whether compiling `src` (or analyzing it, with `lint`) raises the
/// nesting ParseError at a line of the source.
bool nesting_error(const std::string& src, bool lint) {
    try {
        if (lint) {
            (void)cc::analyze_source(src);
        } else {
            (void)cc::compile_program({src}, {});
        }
    } catch (const ParseError& e) {
        EXPECT_GE(e.line(), 1);
        EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos) << e.what();
        return true;
    }
    return false;
}

TEST(MiniCErrors, DeepNestingIsAnError) {
    // Every pass after the parser recurses down its tree, so depth is
    // bounded where the tree is built: deep input is a ParseError, never a
    // stack overflow of the host.
    for (const NestingShape& shape : kNestingShapes) {
        SCOPED_TRACE(shape.name);
        for (const bool lint : {false, true}) {
            EXPECT_TRUE(nesting_error(shape.source(100'000), lint));
            EXPECT_TRUE(nesting_error(shape.source(cc::kMaxNesting + 1), lint));
        }
        const int under = cc::kMaxNesting - 8;
        EXPECT_NO_THROW((void)cc::compile_program({shape.source(under)}, {}));
        EXPECT_NO_THROW((void)cc::analyze_source(shape.source(under)));
    }
    // A run of '-' lexes as pre-decrements, which nest as deep.
    EXPECT_TRUE(nesting_error("int main() { return " + repeat("-", 100'000) + "1; }", false));
    // Twenty chains, each the first operand of the next: the parser nests
    // only 20 deep, but the tree it builds is 20 * 20 operators tall.
    std::string stacked = "1";
    for (int i = 0; i < 20; ++i) {
        stacked = "(" + stacked + repeat(" + 1", 20) + ")";
    }
    EXPECT_TRUE(nesting_error("int main() { return " + stacked + "; }", false));
}

// --- hardening transformations --------------------------------------------------

TEST(MiniCHardening, BoundsChecksCatchBadIndex) {
    CompilerOptions opts;
    opts.bounds_checks = true;
    Process p(cc::compile_program({R"(
        int main() {
          int a[4];
          int i = 7;           /* would silently corrupt without checks */
          a[i] = 1;
          return 0;
        }
    )"},
                                  opts),
              SecurityProfile::none(), 7);
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::Abort);
}

TEST(MiniCHardening, BoundsChecksRejectNegativeIndex) {
    CompilerOptions opts;
    opts.bounds_checks = true;
    Process p(cc::compile_program({R"(
        int main() { int a[4]; int i = -1; a[i] = 1; return 0; }
    )"},
                                  opts),
              SecurityProfile::none(), 7);
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::Abort);
}

TEST(MiniCHardening, BoundsChecksAllowValidIndices) {
    CompilerOptions opts;
    opts.bounds_checks = true;
    EXPECT_EQ(run_main(R"(
        int main() {
          int a[4];
          int sum = 0;
          for (int i = 0; i < 4; i = i + 1) { a[i] = i; }
          for (int i = 0; i < 4; i = i + 1) { sum = sum + a[i]; }
          return sum;
        }
    )",
                       "", opts),
              6);
}

TEST(MiniCHardening, FortifyCatchesOversizedRead) {
    CompilerOptions opts;
    opts.fortify_reads = true;
    Process p(cc::compile_program({R"(
        int main() { char buf[8]; read(0, buf, 32); return 0; }
    )"},
                                  opts),
              SecurityProfile::none(), 7);
    p.feed_input("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
    EXPECT_EQ(p.run().trap.kind, vm::TrapKind::Abort);
}

TEST(MiniCHardening, FortifyAllowsExactFit) {
    CompilerOptions opts;
    opts.fortify_reads = true;
    EXPECT_EQ(run_main("int main() { char buf[8]; return read(0, buf, 8); }", "abcd", opts), 4);
}

TEST(MiniCHardening, CanaryChangesFrameButNotSemantics) {
    CompilerOptions opts;
    opts.stack_canaries = true;
    EXPECT_EQ(run_main(R"(
        int sum3(int a, int b, int c) { int t = a + b; return t + c; }
        int main() { return sum3(10, 14, 18); }
    )",
                       "", opts),
              42);
}

TEST(MiniCHardening, SafeProfileRunsCleanCode) {
    EXPECT_EQ(run_main(R"(
        int main() {
          char buf[32];
          int n = read(0, buf, 31);
          buf[n] = 0;
          return strlen(buf);
        }
    )",
                       "hello", CompilerOptions::safe()),
              5);
}

// --- deterministic output ---------------------------------------------------------

TEST(MiniC, CompilationIsDeterministic) {
    const char* src = "int main() { return 1; }";
    const auto a = cc::compile_program({src}, CompilerOptions::none());
    const auto b = cc::compile_program({src}, CompilerOptions::none());
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.data, b.data);
}

TEST(MiniC, AsmOutputIsInspectable) {
    const std::string s = cc::compile_to_asm("int main() { return 0; }",
                                             CompilerOptions::none(), "demo");
    EXPECT_NE(s.find(".global main"), std::string::npos);
    EXPECT_NE(s.find("push bp"), std::string::npos);
    EXPECT_NE(s.find("ret"), std::string::npos);
}

} // namespace

// Appended: ternary operator tests (language extension).
namespace {
TEST(MiniC, TernaryOperator) {
    EXPECT_EQ(run_main("int main() { return 1 ? 10 : 20; }"), 10);
    EXPECT_EQ(run_main("int main() { return 0 ? 10 : 20; }"), 20);
    EXPECT_EQ(run_main("int main() { int x = 5; return x > 3 ? x * 2 : x; }"), 10);
    // Right associativity and nesting.
    EXPECT_EQ(run_main("int main() { return 0 ? 1 : 0 ? 2 : 3; }"), 3);
    // Only the selected branch is evaluated.
    EXPECT_EQ(run_main(R"(
        int calls = 0;
        int bump() { calls = calls + 1; return 99; }
        int main() { int v = 1 ? 7 : bump(); return v * 10 + calls; }
    )"),
              70);
    // Works inside function bodies that the paper-style code uses.
    EXPECT_EQ(run_main(R"(
        int abs(int x) { return x < 0 ? -x : x; }
        int main() { return abs(-17) + abs(25); }
    )"),
              42);
}
} // namespace
