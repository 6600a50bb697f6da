// Scalar operation helpers of the reference loop (executor.cpp).
//
// Every piece of arithmetic with observable semantics (32-bit wrapping,
// div/rem trap conditions, f32 rounding, comparison predicates) lives here;
// the JIT's templates (jit.cpp) reproduce each one bit for bit, and the
// differential tests hold the two backends to it.
#pragma once

#include "support/error.hpp"
#include "vm/loader.hpp"

namespace care::vm {

/// Sign-extend the low 32 bits (x86 "movslq"; also what every 32-bit ALU
/// result is wrapped through).
inline std::uint64_t norm32(std::uint64_t v) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

inline bool intCmp(ir::CmpPred p, std::int64_t a, std::int64_t b) {
  switch (p) {
  case ir::CmpPred::EQ: return a == b;
  case ir::CmpPred::NE: return a != b;
  case ir::CmpPred::LT: return a < b;
  case ir::CmpPred::LE: return a <= b;
  case ir::CmpPred::GT: return a > b;
  case ir::CmpPred::GE: return a >= b;
  }
  return false;
}

inline bool fpCmp(ir::CmpPred p, double a, double b) {
  switch (p) {
  case ir::CmpPred::EQ: return a == b;
  case ir::CmpPred::NE: return a != b;
  case ir::CmpPred::LT: return a < b;
  case ir::CmpPred::LE: return a <= b;
  case ir::CmpPred::GT: return a > b;
  case ir::CmpPred::GE: return a >= b;
  }
  return false;
}

/// Integer ALU. Returns false (leaving `out` untouched) when the operation
/// raises SIGFPE: division by zero or the INT_MIN / -1 overflow, at the
/// operation's width.
inline bool intAluOp(backend::MOp op, std::uint64_t a, std::uint64_t b,
                     bool narrow, std::uint64_t& out) {
  const std::int64_t sa = static_cast<std::int64_t>(a);
  const std::int64_t sb = static_cast<std::int64_t>(b);
  std::uint64_t r = 0;
  switch (op) {
  case backend::MOp::IAdd: r = a + b; break;
  case backend::MOp::ISub: r = a - b; break;
  case backend::MOp::IMul: r = a * b; break;
  case backend::MOp::IDiv:
  case backend::MOp::IRem: {
    if (narrow) {
      const std::int32_t na = static_cast<std::int32_t>(a);
      const std::int32_t nb = static_cast<std::int32_t>(b);
      if (nb == 0 || (na == INT32_MIN && nb == -1)) return false;
      r = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          op == backend::MOp::IDiv ? na / nb : na % nb));
    } else {
      if (sb == 0 || (sa == INT64_MIN && sb == -1)) return false;
      r = static_cast<std::uint64_t>(op == backend::MOp::IDiv ? sa / sb
                                                              : sa % sb);
    }
    out = narrow ? norm32(r) : r;
    return true;
  }
  case backend::MOp::IAnd: r = a & b; break;
  case backend::MOp::IOr: r = a | b; break;
  case backend::MOp::IXor: r = a ^ b; break;
  case backend::MOp::IShl: r = a << (b & (narrow ? 31 : 63)); break;
  case backend::MOp::IAshr:
    r = static_cast<std::uint64_t>(sa >> (b & (narrow ? 31 : 63)));
    break;
  default: CARE_UNREACHABLE("bad int alu op");
  }
  out = narrow ? norm32(r) : r;
  return true;
}

/// FP ALU; `narrow` rounds the result through f32.
inline double fpAluOp(backend::MOp op, double a, double b, bool narrow) {
  double r = 0;
  switch (op) {
  case backend::MOp::FAdd: r = a + b; break;
  case backend::MOp::FSub: r = a - b; break;
  case backend::MOp::FMul: r = a * b; break;
  case backend::MOp::FDiv: r = a / b; break;
  default: CARE_UNREACHABLE("bad fp alu op");
  }
  return narrow ? static_cast<double>(static_cast<float>(r)) : r;
}

/// Effective address of a memory operand: disp + global + base + index*scale.
inline std::uint64_t effectiveAddr(const backend::MemRef& m,
                                   const std::uint64_t* g,
                                   const LoadedModule& lm) {
  std::uint64_t a = static_cast<std::uint64_t>(m.disp);
  if (m.globalIdx >= 0)
    a += lm.globalAddr[static_cast<std::size_t>(m.globalIdx)];
  if (m.base != backend::kNoReg) a += g[m.base];
  if (m.index != backend::kNoReg) a += g[m.index] * m.scale;
  return a;
}

} // namespace care::vm
