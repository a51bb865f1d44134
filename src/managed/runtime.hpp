// Managed runtime (Section IV-A, mechanism #1: virtual machines [18]).
//
// "Virtual machines like the Java Virtual Machine raise the level of
// abstraction of compiled code such that it gets closer to that of the
// source code ... both the distinction between data and code, as well as
// abstraction mechanisms from the source language (like objects with
// private fields) are maintained at run time."
//
// This module is a miniature such runtime: typed bytecode, bounds-checked
// arrays, objects with private fields whose access the interpreter checks
// on every field instruction.  It demonstrates exactly the trade-offs the
// paper lists:
//
//  * abstraction is preserved — bytecode from one "class" cannot read
//    another class's private fields, and array accesses cannot go out of
//    bounds (tests/test_managed.cpp);
//  * there is a performance penalty — the bytecode is interpreted
//    (bench via step counters);
//  * there is NO protection against lower-layer attackers — the managed
//    heap is ordinary memory of the hosting process, and raw_heap()
//    models a kernel-level scraper reading straight through it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace swsec::managed {

/// Raised when bytecode violates the runtime's safety rules.
class ManagedError : public Error {
public:
    explicit ManagedError(const std::string& what) : Error("managed runtime: " + what) {}
};

/// Typed bytecode instruction set.
enum class Bc : std::uint8_t {
    Push,       // push imm
    Dup,        // duplicate top of stack
    Pop,        // discard top
    LoadLocal,  // push locals[a]
    StoreLocal, // locals[a] = pop
    Add,
    Sub,
    Mul,
    Div,        // traps on zero
    CmpLt,      // push (b < a ? ... ) — operands popped right-to-left
    CmpEq,
    Jz,         // pop; jump to a when zero
    Jmp,
    Call,       // a = method index; pops nargs, pushes return value
    Ret,        // pop return value, leave method
    NewObj,     // a = class index; pushes object reference
    GetField,   // a = class index, b = field index; pops objref
    PutField,   // a = class, b = field; pops value, objref
    NewArr,     // pops length; pushes array reference (int[])
    ALoad,      // pops index, arrayref; pushes element (bounds-checked)
    AStore,     // pops value, index, arrayref (bounds-checked)
    Halt,
};

struct BcInsn {
    Bc op = Bc::Halt;
    std::int32_t a = 0;
    std::int32_t b = 0;
};

struct Field {
    std::string name;
    bool is_private = true;
};

struct Method {
    std::string name;
    int owner_class = -1; // index into the runtime's class table
    int nargs = 0;
    int nlocals = 0; // including args (locals[0..nargs) are the arguments)
    std::vector<BcInsn> code;
};

struct Class {
    std::string name;
    std::vector<Field> fields;
};

/// The interpreter.  Heap cells are 32-bit words; an object reference is the
/// heap index of its header ([class_id][field0][field1]...), an array
/// reference the index of its header ([length][elem0]...).
class ManagedRuntime {
public:
    int add_class(Class cls);
    int add_method(Method m);

    /// Allocate an object at "privileged" (setup) level, bypassing access
    /// control — how a constructor would initialise private state.
    [[nodiscard]] std::int32_t new_object(int class_index,
                                          std::span<const std::int32_t> field_values);

    /// Invoke a method.  Field access rules are enforced against the
    /// *executing method's* owner class on every GetField/PutField.
    /// Throws ManagedError on any safety violation.
    std::int32_t invoke(int method_index, std::span<const std::int32_t> args);

    /// Privileged (host) read of an object field — for tests.
    [[nodiscard]] std::int32_t field_of(std::int32_t objref, int field) const;

    /// The lower-layer attacker's view: the managed heap is just bytes in
    /// the hosting process.  A kernel scraper reads it wholesale — the
    /// runtime's access control does not exist at this level.
    [[nodiscard]] std::span<const std::int32_t> raw_heap() const noexcept { return heap_; }

    /// Bytecode steps of the most recent top-level invoke() (the watchdog
    /// budget is per invocation, like Machine::run's step budget — a
    /// long-lived runtime serving many calls must not accumulate into it).
    [[nodiscard]] std::uint64_t steps_executed() const noexcept { return steps_; }

private:
    std::int32_t run(const Method& m, std::span<const std::int32_t> args, int depth);

    std::vector<Class> classes_;
    std::vector<Method> methods_;
    std::vector<std::int32_t> heap_;
    std::uint64_t steps_ = 0;
};

} // namespace swsec::managed
