#include "cc/codegen.hpp"

#include <limits>
#include <string_view>

#include "common/error.hpp"

namespace swsec::cc {

// Constant folding for global initialisers.
//
// The compiler must agree with the machine about what an expression means:
// a folded initialiser and the identical expression executed at run time
// have to produce the same 32-bit value.  The VM defines two's-complement
// wrap for Add/Sub/Mul/Neg, Divs/Rems define INT_MIN / -1 (wrap / 0), and
// shifts mask the count to 5 bits with >> arithmetic (codegen emits `sar`
// for MiniC's signed >>).  Folding therefore runs on uint32 — host-UB-free
// — and special-cases division exactly like vm::Machine does.
std::int32_t fold_constant_expr(const Expr& e) {
    constexpr std::int32_t kIntMin = std::numeric_limits<std::int32_t>::min();
    const auto wrap = [](std::uint32_t u) {
        return static_cast<std::int32_t>(u);
    };
    switch (e.kind) {
    case Expr::Kind::IntLit:
        return e.value;
    case Expr::Kind::Unary: {
        const std::int32_t v = fold_constant_expr(*e.lhs);
        const auto vu = static_cast<std::uint32_t>(v);
        switch (e.un_op) {
        case UnOp::Neg:
            return wrap(0U - vu); // vm Op::Neg; -INT_MIN wraps to INT_MIN
        case UnOp::Not:
            return v == 0 ? 1 : 0;
        case UnOp::BitNot:
            return wrap(~vu);
        default:
            throw Error("non-constant global initialiser");
        }
    }
    case Expr::Kind::Binary: {
        const std::int32_t a = fold_constant_expr(*e.lhs);
        const std::int32_t b = fold_constant_expr(*e.rhs);
        const auto au = static_cast<std::uint32_t>(a);
        const auto bu = static_cast<std::uint32_t>(b);
        switch (e.bin_op) {
        case BinOp::Add:
            return wrap(au + bu);
        case BinOp::Sub:
            return wrap(au - bu);
        case BinOp::Mul:
            return wrap(au * bu);
        case BinOp::Div:
            if (b == 0) {
                throw Error("division by zero in constant initialiser");
            }
            if (a == kIntMin && b == -1) {
                return kIntMin; // vm Op::Divs defines wrap where x86 traps
            }
            return a / b;
        case BinOp::Rem:
            if (b == 0) {
                throw Error("division by zero in constant initialiser");
            }
            if (a == kIntMin && b == -1) {
                return 0; // vm Op::Rems
            }
            return a % b;
        case BinOp::Shl:
            return wrap(au << (bu & 31));
        case BinOp::Shr:
            // MiniC >> on int is arithmetic (codegen emits `sar`): shift the
            // signed value, count masked to 5 bits like vm Op::Sar.
            return wrap(static_cast<std::uint32_t>(a >> (bu & 31)));
        case BinOp::BitAnd:
            return wrap(au & bu);
        case BinOp::BitOr:
            return wrap(au | bu);
        case BinOp::BitXor:
            return wrap(au ^ bu);
        case BinOp::Lt:
            return a < b ? 1 : 0;
        case BinOp::Gt:
            return a > b ? 1 : 0;
        case BinOp::Le:
            return a <= b ? 1 : 0;
        case BinOp::Ge:
            return a >= b ? 1 : 0;
        case BinOp::Eq:
            return a == b ? 1 : 0;
        case BinOp::Ne:
            return a != b ? 1 : 0;
        case BinOp::LogAnd:
            return (a != 0 && b != 0) ? 1 : 0;
        case BinOp::LogOr:
            return (a != 0 || b != 0) ? 1 : 0;
        }
        return 0;
    }
    default:
        throw Error("non-constant global initialiser");
    }
}

namespace {

using assembler::AsmList;
using assembler::AsmOperand;
using assembler::AsmStmt;
using assembler::StrRef;
using isa::Op;
using Kind = AsmStmt::Kind;

int round4(int n) { return (n + 3) & ~3; }

constexpr int kRedZone = 16; // bytes of poison around each stack array
                             // (memcheck poison map and/or sanitizer shadow)

// Shadow mapping constants, kept numerically in sync with vm/memory.hpp
// (kShadowBase / kShadowShift).  The compiler deliberately does not include
// vm headers — the contract is the emitted ABI, not a C++ dependency — and
// the static_assert-equivalent lives in tests/test_sanitizer.cpp, which
// compiles a probe against the real vm constants.
constexpr std::uint32_t kAsanShadowBase = 0x20000000u; // == vm::kShadowBase
constexpr int kAsanShadowShift = 2;                    // == vm::kShadowShift

// Operands, in the order the assembly text writes them.
constexpr AsmOperand reg(isa::Reg r) { return {AsmOperand::Kind::Reg, r, 0, {}}; }
constexpr AsmOperand imm(std::int32_t v) { return {AsmOperand::Kind::Imm, isa::Reg::R0, v, {}}; }
constexpr AsmOperand mem(AsmOperand base, std::int32_t disp) {
    return {AsmOperand::Kind::Mem, base.reg, disp, {}};
}
constexpr AsmOperand sym(StrRef name) { return {AsmOperand::Kind::Sym, isa::Reg::R0, 0, name}; }

constexpr AsmOperand R0 = reg(isa::Reg::R0);
constexpr AsmOperand R1 = reg(isa::Reg::R1);
constexpr AsmOperand R2 = reg(isa::Reg::R2);
constexpr AsmOperand R3 = reg(isa::Reg::R3);
constexpr AsmOperand R4 = reg(isa::Reg::R4);
constexpr AsmOperand R5 = reg(isa::Reg::R5);
constexpr AsmOperand R6 = reg(isa::Reg::R6);
constexpr AsmOperand R7 = reg(isa::Reg::R7);
constexpr AsmOperand SP = reg(isa::Reg::Sp);
constexpr AsmOperand BP = reg(isa::Reg::Bp);

// Code generation appends typed statements to two lists, text and data, the
// way harec's gen pushes QBE instructions; names and string bytes go to one
// string table.  Every statement carries the line it has in the rendered
// text (the text lines, then the data lines), so an error raised while
// building the object, and the line table's fallback before a function's
// first `.line`, read as they would from the assembly text.
class CodeGen {
public:
    CodeGen(const Program& prog, const CompilerOptions& opts, std::string unit)
        : prog_(prog), opts_(opts), unit_(std::move(unit)) {}

    AsmList run() {
        emit_globals();
        blank();
        text_stmt(Kind::Text);
        text_stmt(Kind::File).str = put(unit_, ".mc");
        for (const auto& fn : prog_.funcs) {
            if (fn.body) {
                gen_func(fn);
            }
        }
        if (opts_.pma_mode == PmaMode::SecureModule) {
            // The end of the module's data, which the entry stubs' window
            // check reads: pma::build_module links this unit's data last.
            data_stmt(Kind::Label).str = put("__pma_data_end");
        }
        AsmList list;
        list.strtab = std::move(strtab_);
        list.stmts = std::move(text_);
        list.stmts.reserve(list.stmts.size() + data_.size());
        for (AsmStmt& st : data_) {
            st.line += text_lines_;
            list.stmts.push_back(st);
        }
        return list;
    }

private:
    const Program& prog_;
    CompilerOptions opts_;
    std::string unit_;
    std::string strtab_;
    std::vector<AsmStmt> text_;
    std::vector<AsmStmt> data_;
    std::uint32_t text_lines_ = 0;
    std::uint32_t data_lines_ = 0;
    int label_counter_ = 0;
    int str_counter_ = 0;

    // per-function state
    const FuncDef* fn_ = nullptr;
    std::vector<int> slot_offsets_; // bp-relative offset per local slot
    int frame_size_ = 0;
    StrRef epilogue_label_;
    std::vector<StrRef> break_labels_;
    std::vector<StrRef> continue_labels_;

    int cur_line_ = 0; // last `.line` emitted (debug line table)

    // ---- emission helpers --------------------------------------------------
    void put_part(std::string_view s) { strtab_ += s; }
    void put_part(int v) { strtab_ += std::to_string(v); }

    /// The concatenation of `parts` (strings and ints) as a new string-table
    /// entry.
    template <typename... Parts> StrRef put(const Parts&... parts) {
        const auto off = static_cast<std::uint32_t>(strtab_.size());
        (put_part(parts), ...);
        return StrRef{off, static_cast<std::uint32_t>(strtab_.size() - off)};
    }

    /// A statement on a new line of the text section.
    AsmStmt& text_stmt(Kind kind) {
        AsmStmt& st = text_.emplace_back();
        st.kind = kind;
        st.line = ++text_lines_;
        return st;
    }
    void blank() { text_stmt(Kind::Blank); }
    void label(StrRef name) { text_stmt(Kind::Label).str = name; }
    void directive(Kind kind, StrRef name) { text_stmt(kind).str = name; }

    /// Emit a `.line` directive so the assembler attributes the following
    /// instructions to MiniC source line `line` (run-length: only on change).
    void set_line(int line) {
        if (line > 0 && line != cur_line_) {
            text_stmt(Kind::Line).value = line;
            cur_line_ = line;
        }
    }

    /// An instruction with its operands as written.
    void ins(Op op) { text_stmt(Kind::Insn).op = op; }
    void ins(Op op, AsmOperand a) {
        AsmStmt& st = text_stmt(Kind::Insn);
        st.op = op;
        st.nops = 1;
        st.ops[0] = a;
    }
    void ins(Op op, AsmOperand a, AsmOperand b) {
        AsmStmt& st = text_stmt(Kind::Insn);
        st.op = op;
        st.nops = 2;
        st.ops[0] = a;
        st.ops[1] = b;
    }

    template <typename... Parts> void comment(const Parts&... parts) {
        if (opts_.emit_comments) {
            text_stmt(Kind::Comment).str = put(parts...);
        }
    }

    /// A statement of the data section: on a new line, or on the line of
    /// the label just emitted ("name: .word 5").
    AsmStmt& data_stmt(Kind kind, bool after_label = false) {
        AsmStmt& st = data_.emplace_back();
        st.kind = kind;
        st.line = after_label ? data_lines_ : ++data_lines_;
        return st;
    }
    /// "name: <kind>" in the data section.
    AsmStmt& data_labelled(StrRef name, Kind kind) {
        data_stmt(Kind::Label).str = name;
        return data_stmt(kind, true);
    }

    StrRef fresh_label(std::string_view hint, std::string_view hint_tail = {}) {
        return put(".L$", unit_, "$", hint, hint_tail, "$", label_counter_++);
    }

    StrRef intern_string(const std::string& s) {
        const StrRef label = put("Lstr$", unit_, "$", str_counter_++);
        data_labelled(label, Kind::Asciz).str = put(s);
        data_stmt(Kind::Align).value = 4;
        return label;
    }

    // ---- globals -----------------------------------------------------------
    void emit_globals() {
        data_stmt(Kind::Data);
        for (const auto& g : prog_.globals) {
            const StrRef label = g.is_static ? put(static_label(g.name, unit_)) : put(g.name);
            if (!g.is_static) {
                data_stmt(Kind::Global).str = label;
            }
            data_stmt(Kind::Align).value = 4;
            if (opts_.sanitize_address) {
                // Redzone *before* every global: together with the trailing
                // zone after the last one, every global is bracketed, so a
                // linear overflow out of one global lands in poison before
                // it reaches its neighbour.
                data_stmt(Kind::Redzone).value = kRedZone;
            }
            if (g.type->is_array()) {
                if (g.has_init_str) {
                    data_labelled(label, Kind::Asciz).str = put(g.init_str);
                    const int pad = g.type->size() - static_cast<int>(g.init_str.size()) - 1;
                    if (pad > 0) {
                        data_stmt(Kind::Space).value = pad;
                    }
                } else {
                    data_labelled(label, Kind::Space).value = g.type->size();
                }
            } else if (g.type->is_char()) {
                const std::int32_t v = g.init ? fold_constant_expr(*g.init) : 0;
                data_labelled(label, Kind::Byte).value = v & 0xff;
            } else {
                const std::int32_t v = g.init ? fold_constant_expr(*g.init) : 0;
                data_labelled(label, Kind::Word).ops[0] = imm(v);
            }
        }
        if (opts_.sanitize_address && !prog_.globals.empty()) {
            data_stmt(Kind::Align).value = 4;
            data_stmt(Kind::Redzone).value = kRedZone;
        }
    }

    // ---- frame layout --------------------------------------------------------
    void layout_frame(const FuncDef& fn) {
        slot_offsets_.assign(fn.local_slots.size(), 0);
        int cursor = opts_.stack_canaries ? 4 : 0; // canary slot at [bp-4]
        for (std::size_t i = 0; i < fn.local_slots.size(); ++i) {
            const TypePtr& t = fn.local_slots[i];
            // MiniC has no structs, so the frame itself plays the aggregate
            // role (StructZone's intra-object redzones): every array member
            // of the "frame struct" is bracketed by zones, separating it
            // from the scalars and arrays that are its sibling fields.
            const bool zoned = (opts_.memcheck || opts_.sanitize_address) && t->is_array();
            if (zoned) {
                cursor += kRedZone; // red zone above (closer to bp)
            }
            cursor += round4(t->size());
            slot_offsets_[i] = -cursor;
            if (zoned) {
                cursor += kRedZone; // red zone below
            }
        }
        frame_size_ = cursor;
    }

    [[nodiscard]] int param_offset(int index) const { return 8 + 4 * index; }

    /// Emit the sanitizer shadow check for the run-time address held in
    /// `addr_reg` (r0 or r1).  On a poisoned granule the sequence traps via
    /// the abort ABI (r0 = AbortReason::Asan, r1 = faulting address); on the
    /// clean path it preserves every register except r6.  Instrumentation
    /// covers exactly the accesses whose address is *computed* at run time
    /// (indexing, dereference, assignment-through-lvalue, ++/--): direct
    /// bp-relative scalar and named-global accesses are compile-time safe
    /// and stay uninstrumented, which is most of the sanitizer's low tax.
    void emit_asan_check(AsmOperand addr_reg) {
        if (!opts_.sanitize_address) {
            return;
        }
        const StrRef ok = fresh_label("asan_ok");
        comment("asan: shadow check ", isa::reg_name(addr_reg.reg));
        ins(Op::MovR, R6, addr_reg);
        ins(Op::ShrI, R6, imm(kAsanShadowShift)); // logical: addr is unsigned
        ins(Op::AddI, R6, imm(static_cast<std::int32_t>(kAsanShadowBase)));
        ins(Op::Load8, R6, mem(R6, 0));
        ins(Op::CmpI, R6, imm(0));
        ins(Op::Jz, sym(ok));
        if (addr_reg.reg != R1.reg) {
            ins(Op::MovR, R1, addr_reg); // faulting address for the trap record
        }
        ins(Op::MovI, R0, imm(5)); // AbortReason::Asan
        ins(Op::Sys, imm(5));
        label(ok);
    }

    // ---- protected-module support (Section IV-B) -----------------------------

    /// Link-time label of the function body that direct calls target.  In
    /// SecureModule mode exported functions get an internal implementation
    /// label; the exported name becomes the entry stub.
    [[nodiscard]] StrRef impl_label(const FuncDef& fn) {
        if (fn.is_static) {
            return put(static_label(fn.name, unit_));
        }
        if (opts_.pma_mode == PmaMode::SecureModule) {
            return put(fn.name, "$impl$", unit_);
        }
        return put(fn.name);
    }

    /// Emit the secure entry stub for an exported module function: check
    /// that the caller's stack window (return address and arguments) lies
    /// outside the module, save the outside stack pointer, switch to the
    /// module's private stack, copy the arguments across the protection
    /// boundary, run the implementation, and on the way out scrub every
    /// scratch register so module secrets cannot leak through the register
    /// file.  Without the check, a caller whose SP points into module data
    /// hands the module its own secrets as arguments and a module word as
    /// its return address.
    void gen_entry_stub(const FuncDef& fn) {
        const int n = static_cast<int>(fn.params.size());
        const StrRef text_ok = fresh_label("window_text_ok");
        const StrRef window_bad = fresh_label("window_bad");
        const StrRef window_ok = fresh_label("window_ok");
        blank();
        comment("PMA entry stub for ", fn.name, " (secure compilation)");
        const StrRef name = put(fn.name);
        directive(Kind::Global, name);
        directive(Kind::Func, name);
        directive(Kind::Entry, name);
        label(name);
        comment("the caller's window [sp, sp + ", 4 + 4 * n, ") must lie outside the module");
        ins(Op::MovR, R5, SP); // outside stack pointer
        ins(Op::MovR, R6, R5);
        ins(Op::AddI, R6, imm(4 + 4 * n));
        ins(Op::Cmp, R6, R5);
        ins(Op::Jb, sym(window_bad)); // the window wraps around
        ins(Op::MovI, R4, sym(put("__pma_text_end")));
        ins(Op::Cmp, R5, R4);
        ins(Op::Jae, sym(text_ok));
        ins(Op::MovI, R4, sym(put("__pma_text_start")));
        ins(Op::Cmp, R4, R6);
        ins(Op::Jb, sym(window_bad));
        label(text_ok);
        ins(Op::MovI, R4, sym(put("__pma_data_end")));
        ins(Op::Cmp, R5, R4);
        ins(Op::Jae, sym(window_ok));
        ins(Op::MovI, R4, sym(put("__pma_stack"))); // module data starts with its stack
        ins(Op::Cmp, R4, R6);
        ins(Op::Jae, sym(window_ok));
        label(window_bad);
        ins(Op::MovI, R0, imm(4)); // AbortReason::PmaGuard
        ins(Op::Sys, imm(5));      // abort: caller stack inside the module
        label(window_ok);
        ins(Op::MovI, R7, sym(put("__pma_out_sp")));
        ins(Op::Store, mem(R7, 0), R5);
        ins(Op::MovI, R7, sym(put("__pma_priv_sp")));
        ins(Op::Load, SP, mem(R7, 0)); // switch to the private stack
        ins(Op::Push, R5);             // remember the outside sp across the call
        for (int i = n - 1; i >= 0; --i) {
            ins(Op::Load, R4, mem(R5, 4 + 4 * i));
            ins(Op::Push, R4);
        }
        ins(Op::Call, sym(impl_label(fn)));
        if (n > 0) {
            ins(Op::AddI, SP, imm(4 * n));
        }
        ins(Op::Pop, R5);
        ins(Op::MovI, R7, sym(put("__pma_priv_sp")));
        ins(Op::Store, mem(R7, 0), SP); // persist the private stack pointer
        ins(Op::MovR, SP, R5);          // back on the outside stack
        comment("scrub scratch registers before leaving the module");
        for (int r = 1; r <= 7; ++r) {
            ins(Op::MovI, reg(static_cast<isa::Reg>(r)), imm(0));
        }
        ins(Op::Ret);
    }

    // ---- functions ---------------------------------------------------------
    void gen_func(const FuncDef& fn) {
        fn_ = &fn;
        layout_frame(fn);
        epilogue_label_ = fresh_label("epi$", fn.name);

        const StrRef name = impl_label(fn);
        blank();
        comment(fn.ret->to_string(), " ", fn.name, "(...)");
        if (!fn.is_static && opts_.pma_mode != PmaMode::SecureModule) {
            directive(Kind::Global, name);
        }
        if (!fn.is_static && opts_.pma_mode == PmaMode::InsecureModule) {
            // Naive module compilation: the function start itself is the
            // entry point (this is what the Fig. 4 attack exploits).
            directive(Kind::Entry, name);
        }
        directive(Kind::Func, name);
        label(name);
        set_line(fn.line);
        ins(Op::Push, BP);
        ins(Op::MovR, BP, SP);
        if (frame_size_ > 0) {
            ins(Op::SubI, SP, imm(frame_size_));
        }
        if (opts_.stack_canaries) {
            comment("StackGuard: place canary between locals and saved bp/ret");
            ins(Op::MovI, R0, sym(put("__stack_chk_guard")));
            ins(Op::Load, R0, mem(R0, 0));
            ins(Op::Store, mem(BP, -4), R0);
        }
        const bool zoned_frames = opts_.memcheck || opts_.sanitize_address;
        if (zoned_frames && frame_size_ > 0) {
            comment("redzones: clear stale poison, then poison array red zones");
            ins(Op::Lea, R0, mem(BP, -frame_size_));
            ins(Op::MovI, R1, imm(frame_size_));
            ins(Op::Sys, imm(7)); // unpoison
            for (std::size_t i = 0; i < fn.local_slots.size(); ++i) {
                const TypePtr& t = fn.local_slots[i];
                if (!t->is_array()) {
                    continue;
                }
                const int off = slot_offsets_[i];
                const int size = round4(t->size());
                ins(Op::Lea, R0, mem(BP, off + size));
                ins(Op::MovI, R1, imm(kRedZone));
                ins(Op::Sys, imm(6)); // poison above
                ins(Op::Lea, R0, mem(BP, off - kRedZone));
                ins(Op::MovI, R1, imm(kRedZone));
                ins(Op::Sys, imm(6)); // poison below
            }
        }
        if (opts_.sanitize_address && !opts_.memcheck) {
            // Poison the saved bp + return address ([bp+0, bp+8)) in shadow:
            // a computed store that *hops* the canary into the return-address
            // slot hits poison at the compiled check.  Shadow poison is
            // invisible to the machine's own push/pop (unlike the memcheck
            // poison map, which is why this is gated off under memcheck —
            // there the machine's leave/ret would trap on its own frame).
            comment("asan: poison the caller's frame linkage (ret-addr zone)");
            ins(Op::Lea, R0, mem(BP, 0));
            ins(Op::MovI, R1, imm(8));
            ins(Op::Sys, imm(6));
        }

        gen_stmt(*fn.body);

        label(epilogue_label_);
        if ((zoned_frames && frame_size_ > 0) || (opts_.sanitize_address && !opts_.memcheck)) {
            comment("redzones: unpoison the frame before it is deallocated");
            ins(Op::MovR, R3, R0); // preserve the return value
            if (zoned_frames && frame_size_ > 0) {
                ins(Op::Lea, R0, mem(BP, -frame_size_));
                ins(Op::MovI, R1, imm(frame_size_));
                ins(Op::Sys, imm(7));
            }
            if (opts_.sanitize_address && !opts_.memcheck) {
                // Clear the ret-addr zone: the slot is about to be legally
                // consumed by leave/ret, and the caller may reuse it.
                ins(Op::Lea, R0, mem(BP, 0));
                ins(Op::MovI, R1, imm(8));
                ins(Op::Sys, imm(7));
            }
            ins(Op::MovR, R0, R3);
        }
        if (opts_.stack_canaries) {
            comment("StackGuard: verify canary before using the saved return address");
            const StrRef ok = fresh_label("canary_ok");
            ins(Op::MovI, R1, sym(put("__stack_chk_guard")));
            ins(Op::Load, R1, mem(R1, 0));
            ins(Op::Load, R2, mem(BP, -4));
            ins(Op::Cmp, R1, R2);
            ins(Op::Jz, sym(ok));
            ins(Op::MovI, R0, imm(1)); // AbortReason::Canary
            ins(Op::Sys, imm(5));      // abort: smashing detected
            label(ok);
        }
        ins(Op::Leave);
        ins(Op::Ret);
        if (!fn.is_static && opts_.pma_mode == PmaMode::SecureModule) {
            gen_entry_stub(fn);
        }
        fn_ = nullptr;
    }

    // ---- statements ----------------------------------------------------------
    void gen_stmt(const Stmt& s) {
        set_line(s.line);
        switch (s.kind) {
        case Stmt::Kind::Empty:
            break;
        case Stmt::Kind::ExprStmt:
            eval(*s.expr);
            break;
        case Stmt::Kind::Decl:
            gen_decl(s.decl);
            break;
        case Stmt::Kind::If: {
            const StrRef els = fresh_label("else");
            const StrRef end = fresh_label("endif");
            eval(*s.expr);
            ins(Op::CmpI, R0, imm(0));
            ins(Op::Jz, sym(els));
            gen_stmt(*s.then_branch);
            if (s.else_branch) {
                ins(Op::Jmp, sym(end));
                label(els);
                gen_stmt(*s.else_branch);
                label(end);
            } else {
                label(els);
            }
            break;
        }
        case Stmt::Kind::While: {
            const StrRef head = fresh_label("while");
            const StrRef end = fresh_label("endwhile");
            label(head);
            eval(*s.expr);
            ins(Op::CmpI, R0, imm(0));
            ins(Op::Jz, sym(end));
            break_labels_.push_back(end);
            continue_labels_.push_back(head);
            gen_stmt(*s.then_branch);
            break_labels_.pop_back();
            continue_labels_.pop_back();
            ins(Op::Jmp, sym(head));
            label(end);
            break;
        }
        case Stmt::Kind::For: {
            const StrRef head = fresh_label("for");
            const StrRef step = fresh_label("forstep");
            const StrRef end = fresh_label("endfor");
            if (s.init_stmt) {
                gen_stmt(*s.init_stmt);
            }
            label(head);
            if (s.expr) {
                eval(*s.expr);
                ins(Op::CmpI, R0, imm(0));
                ins(Op::Jz, sym(end));
            }
            break_labels_.push_back(end);
            continue_labels_.push_back(step);
            gen_stmt(*s.then_branch);
            break_labels_.pop_back();
            continue_labels_.pop_back();
            label(step);
            if (s.step_expr) {
                eval(*s.step_expr);
            }
            ins(Op::Jmp, sym(head));
            label(end);
            break;
        }
        case Stmt::Kind::Return:
            if (s.expr) {
                eval(*s.expr);
            }
            ins(Op::Jmp, sym(epilogue_label_));
            break;
        case Stmt::Kind::Break:
            SWSEC_ASSERT(!break_labels_.empty(), "break outside loop");
            ins(Op::Jmp, sym(break_labels_.back()));
            break;
        case Stmt::Kind::Continue:
            SWSEC_ASSERT(!continue_labels_.empty(), "continue outside loop");
            ins(Op::Jmp, sym(continue_labels_.back()));
            break;
        case Stmt::Kind::Block:
            for (const auto& sub : s.body) {
                gen_stmt(*sub);
            }
            break;
        }
    }

    void gen_decl(const VarDecl& d) {
        SWSEC_ASSERT(d.slot >= 0, "local decl must have a slot");
        const int off = slot_offsets_[static_cast<std::size_t>(d.slot)];
        if (d.has_init_str) {
            // Copy the string literal into the stack array.
            const StrRef label_ref = intern_string(d.init_str);
            comment("init ", d.name, " = string literal");
            ins(Op::MovI, R0, sym(label_ref));
            ins(Op::Push, R0);
            ins(Op::Lea, R0, mem(BP, off));
            ins(Op::Push, R0);
            ins(Op::PushI, imm(static_cast<int>(d.init_str.size()) + 1));
            // strcpy-free path: memcpy(dst, src, len+1) with args (dst,src,n)
            ins(Op::Pop, R2);
            ins(Op::Pop, R0);
            ins(Op::Pop, R1);
            // inline byte copy loop
            const StrRef loop = fresh_label("strinit");
            const StrRef done = fresh_label("strinit_done");
            label(loop);
            ins(Op::CmpI, R2, imm(0));
            ins(Op::Jz, sym(done));
            ins(Op::Load8, R3, mem(R1, 0));
            ins(Op::Store8, mem(R0, 0), R3);
            ins(Op::AddI, R0, imm(1));
            ins(Op::AddI, R1, imm(1));
            ins(Op::SubI, R2, imm(1));
            ins(Op::Jmp, sym(loop));
            label(done);
            return;
        }
        if (d.init) {
            eval(*d.init);
            ins(d.type->is_char() ? Op::Store8 : Op::Store, mem(BP, off), R0);
        }
    }

    // ---- expressions -----------------------------------------------------
    // eval(): result in r0.  eval_addr(): address of lvalue in r0.

    static bool is_char_value(const Expr& e) {
        return e.type->is_char();
    }
    static Op load_op(bool is_char) { return is_char ? Op::Load8 : Op::Load; }
    static Op store_op(bool is_char) { return is_char ? Op::Store8 : Op::Store; }

    void eval(const Expr& e) {
        set_line(e.line);
        switch (e.kind) {
        case Expr::Kind::IntLit:
            ins(Op::MovI, R0, imm(e.value));
            break;
        case Expr::Kind::StrLit:
            ins(Op::MovI, R0, sym(intern_string(e.str)));
            break;
        case Expr::Kind::Ident:
            switch (e.ref) {
            case RefKind::Func:
                ins(Op::MovI, R0, sym(put(e.str)));
                break;
            case RefKind::Global:
                ins(Op::MovI, R0, sym(put(e.str)));
                if (!e.object_type->is_array()) { // an array decays to its base address
                    ins(load_op(e.object_type->is_char()), R0, mem(R0, 0));
                }
                break;
            case RefKind::Local: {
                const int off = slot_offsets_[static_cast<std::size_t>(e.value)];
                if (e.object_type->is_array()) {
                    ins(Op::Lea, R0, mem(BP, off));
                } else {
                    ins(load_op(e.object_type->is_char()), R0, mem(BP, off));
                }
                break;
            }
            case RefKind::Param:
                ins(load_op(e.object_type->is_char()), R0, mem(BP, param_offset(e.value)));
                break;
            case RefKind::None:
                throw Error("unresolved identifier in codegen: " + e.name);
            }
            break;
        case Expr::Kind::Unary:
            gen_unary(e);
            break;
        case Expr::Kind::Binary:
            gen_binary(e);
            break;
        case Expr::Kind::Assign: {
            eval_addr(*e.lhs);
            ins(Op::Push, R0);
            eval(*e.rhs);
            ins(Op::Pop, R1);
            emit_asan_check(R1);
            ins(store_op(is_char_value(*e.lhs)), mem(R1, 0), R0);
            break;
        }
        case Expr::Kind::Call:
            gen_call(e);
            break;
        case Expr::Kind::Index:
            eval_addr(e);
            emit_asan_check(R0);
            ins(load_op(is_char_value(e)), R0, mem(R0, 0));
            break;
        case Expr::Kind::Cast:
            eval(*e.lhs);
            if (!e.cast_type->is_void() && e.cast_type->is_char()) {
                ins(Op::AndI, R0, imm(255));
            }
            break;
        case Expr::Kind::SizeofT:
            ins(Op::MovI, R0, imm(e.value));
            break;
        case Expr::Kind::Cond: {
            const StrRef els = fresh_label("cond_else");
            const StrRef end = fresh_label("cond_end");
            eval(*e.lhs);
            ins(Op::CmpI, R0, imm(0));
            ins(Op::Jz, sym(els));
            eval(*e.rhs);
            ins(Op::Jmp, sym(end));
            label(els);
            eval(*e.args[0]);
            label(end);
            break;
        }
        case Expr::Kind::PreIncDec:
        case Expr::Kind::PostIncDec: {
            const int step = e.lhs->type->is_ptr() ? e.lhs->type->step() : 1;
            eval_addr(*e.lhs);
            emit_asan_check(R0); // one check covers the load and the store
            ins(load_op(is_char_value(*e.lhs)), R1, mem(R0, 0));
            ins(Op::MovR, R2, R1); // original value
            ins(e.value > 0 ? Op::AddI : Op::SubI, R1, imm(step));
            ins(store_op(is_char_value(*e.lhs)), mem(R0, 0), R1);
            ins(Op::MovR, R0, e.kind == Expr::Kind::PreIncDec ? R1 : R2);
            break;
        }
        }
    }

    void gen_unary(const Expr& e) {
        switch (e.un_op) {
        case UnOp::Neg:
            eval(*e.lhs);
            ins(Op::Neg, R0);
            break;
        case UnOp::BitNot:
            eval(*e.lhs);
            ins(Op::Not, R0);
            break;
        case UnOp::Not: {
            eval(*e.lhs);
            const StrRef t = fresh_label("not");
            ins(Op::CmpI, R0, imm(0));
            ins(Op::MovI, R0, imm(1));
            ins(Op::Jz, sym(t));
            ins(Op::MovI, R0, imm(0));
            label(t);
            break;
        }
        case UnOp::Deref:
            eval(*e.lhs);
            if (e.object_type->is_array()) {
                break; // *p where p points to an array: address is the value
            }
            emit_asan_check(R0);
            ins(load_op(is_char_value(e)), R0, mem(R0, 0));
            break;
        case UnOp::AddrOf:
            eval_addr(*e.lhs);
            break;
        }
    }

    void gen_binary(const Expr& e) {
        if (e.bin_op == BinOp::LogAnd || e.bin_op == BinOp::LogOr) {
            const bool is_and = e.bin_op == BinOp::LogAnd;
            const StrRef shortcut = fresh_label(is_and ? "and_false" : "or_true");
            const StrRef end = fresh_label("log_end");
            const Op jump = is_and ? Op::Jz : Op::Jnz;
            eval(*e.lhs);
            ins(Op::CmpI, R0, imm(0));
            ins(jump, sym(shortcut));
            eval(*e.rhs);
            ins(Op::CmpI, R0, imm(0));
            ins(jump, sym(shortcut));
            ins(Op::MovI, R0, imm(is_and ? 1 : 0));
            ins(Op::Jmp, sym(end));
            label(shortcut);
            ins(Op::MovI, R0, imm(is_and ? 0 : 1));
            label(end);
            return;
        }

        // Pointer arithmetic scaling.
        const bool lp = e.lhs->type->is_ptr();
        const bool rp = e.rhs->type->is_ptr();
        eval(*e.lhs);
        ins(Op::Push, R0);
        eval(*e.rhs);
        ins(Op::Pop, R1); // lhs in r1, rhs in r0

        const auto scale_rhs = [&](int step) {
            if (step != 1) {
                ins(Op::MulI, R0, imm(step));
            }
        };
        // r0 = r1 <op> r0
        const auto combine = [&](Op op) {
            ins(op, R1, R0);
            ins(Op::MovR, R0, R1);
        };

        switch (e.bin_op) {
        case BinOp::Add:
            if (lp && !rp) {
                scale_rhs(e.lhs->type->step());
            } else if (rp && !lp) {
                // int + ptr: scale the int side (in r1)
                if (e.rhs->type->step() != 1) {
                    ins(Op::MulI, R1, imm(e.rhs->type->step()));
                }
            }
            combine(Op::Add);
            break;
        case BinOp::Sub:
            if (lp && rp) {
                combine(Op::Sub);
                const int step = e.lhs->type->step();
                if (step != 1) {
                    ins(Op::MovI, R1, imm(step));
                    ins(Op::Divs, R0, R1);
                }
            } else {
                if (lp) {
                    scale_rhs(e.lhs->type->step());
                }
                combine(Op::Sub);
            }
            break;
        case BinOp::Mul:
            combine(Op::Mul);
            break;
        case BinOp::Div:
            combine(Op::Divs);
            break;
        case BinOp::Rem:
            combine(Op::Rems);
            break;
        case BinOp::Shl:
            combine(Op::Shl);
            break;
        case BinOp::Shr:
            combine(Op::Sar); // C: >> on signed int is arithmetic
            break;
        case BinOp::BitAnd:
            combine(Op::And);
            break;
        case BinOp::BitOr:
            combine(Op::Or);
            break;
        case BinOp::BitXor:
            combine(Op::Xor);
            break;
        case BinOp::Lt:
        case BinOp::Gt:
        case BinOp::Le:
        case BinOp::Ge:
        case BinOp::Eq:
        case BinOp::Ne:
            gen_compare(e.bin_op, lp || rp); // pointers compare unsigned, ints signed
            break;
        case BinOp::LogAnd:
        case BinOp::LogOr:
            SWSEC_ASSERT(false, "handled above");
            break;
        }
    }

    /// r0 = (r1 <op> r0) as 0 or 1.
    void gen_compare(BinOp op, bool unsigned_cmp) {
        ins(Op::Cmp, R1, R0);
        const StrRef yes = fresh_label("cmp_true");
        const StrRef end = fresh_label("cmp_end");
        if (unsigned_cmp && op == BinOp::Gt) {
            // a > b unsigned: "not below and not equal"
            const StrRef no = fresh_label("cmp_false");
            ins(Op::Jb, sym(no));
            ins(Op::Jz, sym(no));
            ins(Op::MovI, R0, imm(1));
            ins(Op::Jmp, sym(end));
            label(no);
            ins(Op::MovI, R0, imm(0));
            label(end);
            return;
        }
        if (unsigned_cmp && op == BinOp::Le) {
            ins(Op::Jb, sym(yes));
            ins(Op::Jz, sym(yes));
            ins(Op::MovI, R0, imm(0));
            ins(Op::Jmp, sym(end));
            label(yes);
            ins(Op::MovI, R0, imm(1));
            label(end);
            return;
        }
        Op jump = Op::Jz;
        switch (op) {
        case BinOp::Lt:
            jump = unsigned_cmp ? Op::Jb : Op::Jl;
            break;
        case BinOp::Ge:
            jump = unsigned_cmp ? Op::Jae : Op::Jge;
            break;
        case BinOp::Gt:
            jump = Op::Jg;
            break;
        case BinOp::Le:
            jump = Op::Jle;
            break;
        case BinOp::Ne:
            jump = Op::Jnz;
            break;
        default:
            break;
        }
        ins(jump, sym(yes));
        ins(Op::MovI, R0, imm(0));
        ins(Op::Jmp, sym(end));
        label(yes);
        ins(Op::MovI, R0, imm(1));
        label(end);
    }

    void gen_call(const Expr& e) {
        // Push arguments right to left: arg0 ends up at [sp].
        for (std::size_t i = e.args.size(); i-- > 0;) {
            eval(*e.args[i]);
            ins(Op::Push, R0);
        }

        // FORTIFY-style capacity check: read(fd, buf, n) with buf a known
        // array must have n <= sizeof(buf).  Catches the Fig. 1 bug.
        if (opts_.fortify_reads && e.lhs->kind == Expr::Kind::Ident && e.args.size() == 3 &&
            (e.lhs->name == "read" || e.lhs->name == "write" || e.lhs->name == "memcpy" ||
             e.lhs->name == "memset")) {
            const bool buf_is_second = e.lhs->name == "read" || e.lhs->name == "write";
            const Expr& dst = buf_is_second ? *e.args[1] : *e.args[0];
            if (dst.object_type && dst.object_type->is_array()) {
                const int cap = dst.object_type->size();
                comment("fortify: length must not exceed sizeof(",
                        dst.kind == Expr::Kind::Ident ? std::string_view(dst.name) : "buffer", ")");
                const StrRef ok = fresh_label("fortify_ok");
                ins(Op::Load, R1, mem(SP, 8)); // the length argument
                ins(Op::CmpI, R1, imm(cap + 1));
                ins(Op::Jb, sym(ok));
                ins(Op::MovI, R0, imm(3)); // AbortReason::Fortify
                ins(Op::Sys, imm(5));
                label(ok);
            }
        }

        if (e.lhs->kind == Expr::Kind::Ident && e.lhs->ref == RefKind::Func) {
            ins(Op::Call, sym(direct_call_label(*e.lhs)));
        } else if (opts_.pma_mode == PmaMode::SecureModule) {
            eval(*e.lhs);
            gen_secure_outcall(static_cast<int>(e.args.size()));
        } else {
            eval(*e.lhs);
            ins(Op::CallR, R0);
        }
        if (!e.args.empty()) {
            ins(Op::AddI, SP, imm(static_cast<std::int32_t>(4 * e.args.size())));
        }
    }

    /// Direct calls inside a secure module must target the implementation
    /// label, not the entry stub (re-entering through the stub would switch
    /// stacks a second time and corrupt the out-sp bookkeeping).
    [[nodiscard]] StrRef direct_call_label(const Expr& callee) {
        if (opts_.pma_mode == PmaMode::SecureModule) {
            for (const auto& fn : prog_.funcs) {
                if (fn.body && fn.name == callee.name) {
                    return impl_label(fn);
                }
            }
        }
        return put(callee.str);
    }

    /// Secure-compilation out-call (Section IV-B): the module calls through
    /// a function pointer supplied from outside.  The compiled sequence
    ///  (1) *sanitises* the pointer — it must lie outside the module's code,
    ///      which is exactly the defensive check that defeats the Fig. 4
    ///      entry-point-abuse attack;
    ///  (2) marshals the arguments from the private stack to the outside
    ///      stack (the callee may not read module memory);
    ///  (3) transfers control with the return address set to a dedicated
    ///      per-call-site *re-entry point*, the only legal way back in.
    /// Before leaving, it pushes the module's BP and then the re-entry point
    /// on the private stack, which outside code cannot write.  The re-entry
    /// point accepts control only while the top of that stack names it, i.e.
    /// while its own out-call is the innermost one outstanding, and pops
    /// both: the frame the module resumes in is its own whatever BP the
    /// callee left, and a re-entry point is good for one return, so a
    /// stale or foreign re-entry aborts with AbortReason::PmaGuard.  The jump
    /// out leaves only SP and the target (r6) non-zero: the callee sees no
    /// module temporary, frame pointer or data address.
    /// Target is in r0; `n` arguments sit on the private stack.
    void gen_secure_outcall(int n) {
        const StrRef ok = fresh_label("san_ok");
        const StrRef reentry_ok = fresh_label("reentry_ok");
        const StrRef reentry = put("__pma_reentry$", unit_, "$", label_counter_++);
        comment("sanitise function pointer: must not point into the module");
        ins(Op::MovI, R6, sym(put("__pma_text_start")));
        ins(Op::Cmp, R0, R6);
        ins(Op::Jb, sym(ok));
        ins(Op::MovI, R6, sym(put("__pma_text_end")));
        ins(Op::Cmp, R0, R6);
        ins(Op::Jae, sym(ok));
        ins(Op::MovI, R0, imm(4)); // AbortReason::PmaGuard
        ins(Op::Sys, imm(5));      // abort: entry-point abuse attempt
        label(ok);
        ins(Op::MovR, R6, R0);
        comment("marshal arguments to the outside stack");
        ins(Op::MovI, R5, sym(put("__pma_out_sp")));
        ins(Op::Load, R5, mem(R5, 0));
        for (int i = n - 1; i >= 0; --i) {
            ins(Op::Load, R4, mem(SP, 4 * i));
            ins(Op::SubI, R5, imm(4));
            ins(Op::Store, mem(R5, 0), R4);
        }
        ins(Op::SubI, R5, imm(4));
        ins(Op::MovI, R4, sym(reentry));
        ins(Op::Store, mem(R5, 0), R4); // outside callee returns to the re-entry point
        ins(Op::Push, BP);              // the module's frame, restored at re-entry
        ins(Op::Push, R4);              // the one outstanding re-entry point
        ins(Op::MovI, R7, sym(put("__pma_priv_sp")));
        ins(Op::Store, mem(R7, 0), SP);
        ins(Op::MovR, SP, R5);
        comment("clear every register but sp and the target before leaving the module");
        for (const AsmOperand r : {R0, R1, R2, R3, R4, R5, R7, BP}) {
            ins(Op::MovI, r, imm(0));
        }
        ins(Op::JmpR, R6);
        directive(Kind::Entry, reentry);
        directive(Kind::Func, reentry);
        label(reentry);
        comment("back inside the module: restore the private stack, accept only the");
        comment("outstanding out-call's re-entry point, and restore the module's frame");
        ins(Op::MovI, R7, sym(put("__pma_priv_sp")));
        ins(Op::Load, SP, mem(R7, 0));
        ins(Op::Pop, R6);
        ins(Op::MovI, R7, sym(reentry));
        ins(Op::Cmp, R6, R7);
        ins(Op::Jz, sym(reentry_ok));
        ins(Op::MovI, R0, imm(4)); // AbortReason::PmaGuard
        ins(Op::Sys, imm(5));      // abort: stale or foreign re-entry
        label(reentry_ok);
        ins(Op::Pop, BP);
    }

    void eval_addr(const Expr& e) {
        switch (e.kind) {
        case Expr::Kind::Ident:
            switch (e.ref) {
            case RefKind::Global:
            case RefKind::Func:
                ins(Op::MovI, R0, sym(put(e.str)));
                break;
            case RefKind::Local:
                ins(Op::Lea, R0, mem(BP, slot_offsets_[static_cast<std::size_t>(e.value)]));
                break;
            case RefKind::Param:
                ins(Op::Lea, R0, mem(BP, param_offset(e.value)));
                break;
            case RefKind::None:
                throw Error("unresolved identifier in codegen: " + e.name);
            }
            break;
        case Expr::Kind::Unary:
            SWSEC_ASSERT(e.un_op == UnOp::Deref, "only deref yields an lvalue");
            eval(*e.lhs);
            break;
        case Expr::Kind::Index: {
            // Base address: arrays use their storage address; pointers load
            // the pointer value.
            eval(*e.lhs); // decayed value == base address in both cases
            ins(Op::Push, R0);
            eval(*e.rhs);
            if (opts_.bounds_checks && e.lhs->kind == Expr::Kind::Ident &&
                e.lhs->object_type && e.lhs->object_type->is_array()) {
                const int len = e.lhs->object_type->array_len();
                comment("bounds check: index < ", len);
                const StrRef ok = fresh_label("bounds_ok");
                ins(Op::CmpI, R0, imm(len));
                ins(Op::Jb, sym(ok)); // unsigned: also rejects negative indices
                ins(Op::MovI, R0, imm(2)); // AbortReason::Bounds
                ins(Op::Sys, imm(5));
                label(ok);
            }
            const int step = e.object_type->size();
            if (step != 1) {
                ins(Op::MulI, R0, imm(step));
            }
            ins(Op::Pop, R1);
            ins(Op::Add, R0, R1);
            break;
        }
        default:
            throw Error("expression is not an lvalue in codegen");
        }
    }
};

} // namespace

assembler::AsmList generate(const Program& prog, const CompilerOptions& opts,
                            const std::string& unit_name) {
    CodeGen cg(prog, opts, unit_name);
    return cg.run();
}

} // namespace swsec::cc
