#include "managed/runtime.hpp"

namespace swsec::managed {

namespace {
constexpr int kMaxDepth = 64;
constexpr std::uint64_t kMaxSteps = 10'000'000;
} // namespace

int ManagedRuntime::add_class(Class cls) {
    classes_.push_back(std::move(cls));
    return static_cast<int>(classes_.size()) - 1;
}

int ManagedRuntime::add_method(Method m) {
    SWSEC_ASSERT(m.nlocals >= m.nargs, "locals must include the arguments");
    methods_.push_back(std::move(m));
    return static_cast<int>(methods_.size()) - 1;
}

std::int32_t ManagedRuntime::new_object(int class_index,
                                        std::span<const std::int32_t> field_values) {
    if (class_index < 0 || class_index >= static_cast<int>(classes_.size())) {
        throw ManagedError("bad class index");
    }
    const Class& cls = classes_[static_cast<std::size_t>(class_index)];
    if (field_values.size() != cls.fields.size()) {
        throw ManagedError("constructor arity mismatch for " + cls.name);
    }
    const auto ref = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(class_index);
    heap_.insert(heap_.end(), field_values.begin(), field_values.end());
    return ref;
}

std::int32_t ManagedRuntime::field_of(std::int32_t objref, int field) const {
    const auto idx = static_cast<std::size_t>(objref) + 1 + static_cast<std::size_t>(field);
    if (objref < 0 || idx >= heap_.size()) {
        throw ManagedError("bad object reference");
    }
    return heap_[idx];
}

std::int32_t ManagedRuntime::invoke(int method_index, std::span<const std::int32_t> args) {
    if (method_index < 0 || method_index >= static_cast<int>(methods_.size())) {
        throw ManagedError("bad method index");
    }
    steps_ = 0; // fresh watchdog budget per top-level invocation
    return run(methods_[static_cast<std::size_t>(method_index)], args, 0);
}

std::int32_t ManagedRuntime::run(const Method& m, std::span<const std::int32_t> args, int depth) {
    if (depth > kMaxDepth) {
        throw ManagedError("call depth exceeded");
    }
    if (static_cast<int>(args.size()) != m.nargs) {
        throw ManagedError("arity mismatch calling " + m.name);
    }
    std::vector<std::int32_t> locals(static_cast<std::size_t>(m.nlocals), 0);
    std::copy(args.begin(), args.end(), locals.begin());
    std::vector<std::int32_t> stack;

    const auto pop = [&]() {
        if (stack.empty()) {
            throw ManagedError("operand stack underflow in " + m.name);
        }
        const std::int32_t v = stack.back();
        stack.pop_back();
        return v;
    };
    const auto check_obj = [&](std::int32_t ref, int class_index) -> std::size_t {
        const auto idx = static_cast<std::size_t>(ref);
        if (ref < 0 || idx >= heap_.size() || heap_[idx] != class_index) {
            throw ManagedError("bad or mistyped object reference in " + m.name);
        }
        return idx;
    };

    std::size_t pc = 0;
    while (pc < m.code.size()) {
        if (++steps_ > kMaxSteps) {
            throw ManagedError("step budget exhausted");
        }
        const BcInsn& in = m.code[pc];
        switch (in.op) {
        case Bc::Push:
            stack.push_back(in.a);
            break;
        case Bc::Dup: {
            const std::int32_t v = pop();
            stack.push_back(v);
            stack.push_back(v);
            break;
        }
        case Bc::Pop:
            (void)pop();
            break;
        case Bc::LoadLocal:
            if (in.a < 0 || in.a >= m.nlocals) {
                throw ManagedError("bad local index");
            }
            stack.push_back(locals[static_cast<std::size_t>(in.a)]);
            break;
        case Bc::StoreLocal:
            if (in.a < 0 || in.a >= m.nlocals) {
                throw ManagedError("bad local index");
            }
            locals[static_cast<std::size_t>(in.a)] = pop();
            break;
        case Bc::Add: {
            const std::int32_t b = pop();
            const std::int32_t a = pop();
            stack.push_back(static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                                      static_cast<std::uint32_t>(b)));
            break;
        }
        case Bc::Sub: {
            const std::int32_t b = pop();
            const std::int32_t a = pop();
            stack.push_back(static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                                      static_cast<std::uint32_t>(b)));
            break;
        }
        case Bc::Mul: {
            const std::int32_t b = pop();
            const std::int32_t a = pop();
            stack.push_back(static_cast<std::int32_t>(static_cast<std::uint32_t>(a) *
                                                      static_cast<std::uint32_t>(b)));
            break;
        }
        case Bc::Div: {
            const std::int32_t b = pop();
            const std::int32_t a = pop();
            if (b == 0) {
                throw ManagedError("division by zero");
            }
            stack.push_back(a / b);
            break;
        }
        case Bc::CmpLt: {
            const std::int32_t b = pop();
            const std::int32_t a = pop();
            stack.push_back(a < b ? 1 : 0);
            break;
        }
        case Bc::CmpEq: {
            const std::int32_t b = pop();
            const std::int32_t a = pop();
            stack.push_back(a == b ? 1 : 0);
            break;
        }
        case Bc::Jz: {
            const std::int32_t v = pop();
            if (in.a < 0 || static_cast<std::size_t>(in.a) > m.code.size()) {
                throw ManagedError("jump out of method"); // no unstructured escape
            }
            if (v == 0) {
                pc = static_cast<std::size_t>(in.a);
                continue;
            }
            break;
        }
        case Bc::Jmp:
            if (in.a < 0 || static_cast<std::size_t>(in.a) > m.code.size()) {
                throw ManagedError("jump out of method");
            }
            pc = static_cast<std::size_t>(in.a);
            continue;
        case Bc::Call: {
            if (in.a < 0 || in.a >= static_cast<int>(methods_.size())) {
                throw ManagedError("bad callee index");
            }
            const Method& callee = methods_[static_cast<std::size_t>(in.a)];
            std::vector<std::int32_t> call_args(static_cast<std::size_t>(callee.nargs));
            for (int i = callee.nargs - 1; i >= 0; --i) {
                call_args[static_cast<std::size_t>(i)] = pop();
            }
            stack.push_back(run(callee, call_args, depth + 1));
            break;
        }
        case Bc::Ret:
            return pop();
        case Bc::NewObj: {
            if (in.a < 0 || in.a >= static_cast<int>(classes_.size())) {
                throw ManagedError("bad class index");
            }
            const auto& cls = classes_[static_cast<std::size_t>(in.a)];
            const auto ref = static_cast<std::int32_t>(heap_.size());
            heap_.push_back(in.a);
            heap_.insert(heap_.end(), cls.fields.size(), 0);
            stack.push_back(ref);
            break;
        }
        case Bc::GetField:
        case Bc::PutField: {
            if (in.a < 0 || in.a >= static_cast<int>(classes_.size())) {
                throw ManagedError("bad class index");
            }
            const Class& cls = classes_[static_cast<std::size_t>(in.a)];
            if (in.b < 0 || in.b >= static_cast<int>(cls.fields.size())) {
                throw ManagedError("bad field index");
            }
            const Field& field = cls.fields[static_cast<std::size_t>(in.b)];
            // The abstraction the paper highlights: private fields are
            // enforced *at run time*, against the executing method's owner.
            if (field.is_private && m.owner_class != in.a) {
                throw ManagedError("illegal access to " + cls.name + "." + field.name +
                                   " from " + m.name);
            }
            if (in.op == Bc::GetField) {
                const std::size_t obj = check_obj(pop(), in.a);
                stack.push_back(heap_[obj + 1 + static_cast<std::size_t>(in.b)]);
            } else {
                const std::int32_t value = pop();
                const std::size_t obj = check_obj(pop(), in.a);
                heap_[obj + 1 + static_cast<std::size_t>(in.b)] = value;
            }
            break;
        }
        case Bc::NewArr: {
            const std::int32_t len = pop();
            if (len < 0 || len > 1'000'000) {
                throw ManagedError("bad array length");
            }
            const auto ref = static_cast<std::int32_t>(heap_.size());
            heap_.push_back(~len); // array header: bitwise-not length (tags arrays)
            heap_.insert(heap_.end(), static_cast<std::size_t>(len), 0);
            stack.push_back(ref);
            break;
        }
        case Bc::ALoad:
        case Bc::AStore: {
            std::int32_t value = 0;
            if (in.op == Bc::AStore) {
                value = pop();
            }
            const std::int32_t index = pop();
            const std::int32_t ref = pop();
            const auto hidx = static_cast<std::size_t>(ref);
            if (ref < 0 || hidx >= heap_.size() || heap_[hidx] >= 0) {
                throw ManagedError("bad array reference");
            }
            const std::int32_t len = ~heap_[hidx];
            // The compiler-enforced bounds check of Section III-C2, as a
            // *runtime* rule: there is no way to express an out-of-bounds
            // access in this machine.
            if (index < 0 || index >= len) {
                throw ManagedError("array index out of bounds");
            }
            const std::size_t slot = hidx + 1 + static_cast<std::size_t>(index);
            if (in.op == Bc::ALoad) {
                stack.push_back(heap_[slot]);
            } else {
                heap_[slot] = value;
            }
            break;
        }
        case Bc::Halt:
            return stack.empty() ? 0 : stack.back();
        }
        ++pc;
    }
    return stack.empty() ? 0 : stack.back();
}

} // namespace swsec::managed
