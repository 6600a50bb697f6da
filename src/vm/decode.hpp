// Predecoded instruction streams: the template JIT's input (jit.cpp).
//
// At first use (after link()), every MFunction is translated 1:1 into a
// flat array of DInst whose operands are fully resolved: global addresses
// are folded into the displacement, loads/stores are specialized by access
// width, int ALU ops by operation and register-vs-immediate form, call
// targets carry the resolved (module, function) pair plus the precomputed
// return PC, and 32-bit wrapping is expressed as a branch-free
// shift-left/shift-right-arithmetic amount. Branch targets remain
// instruction indices (the translation is 1:1), so instruction counts,
// profiling rows and injection CodeLocs mean exactly the same thing in the
// compiled code as in the reference loop.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/mir.hpp"

namespace care::vm {

class Image;

enum class DKind : std::uint8_t {
  Mov, MovImm, FMov, FMovImm,
  // Loads/stores specialized by width; order matches backend::MType.
  LoadI8, LoadI32, LoadI64, LoadF32, LoadF64,
  StoreI8, StoreI32, StoreI64, StoreF32, StoreF64,
  Lea,
  // Int ALU: op x {register, immediate} second operand; order matches the
  // MOp IAdd..IAshr block (RR/RI interleaved). These are the 64-bit forms;
  // div/rem keep their width flag in the handler (rare, internally branchy).
  IAddRR, IAddRI, ISubRR, ISubRI, IMulRR, IMulRI,
  IDivRR, IDivRI, IRemRR, IRemRI,
  IAndRR, IAndRI, IOrRR, IOrRI, IXorRR, IXorRI,
  IShlRR, IShlRI, IAshrRR, IAshrRI,
  // 32-bit (wrapping) forms of the same ops minus div/rem, so the hot
  // handlers need no width test or variable-shift sign-extension pair.
  IAdd32RR, IAdd32RI, ISub32RR, ISub32RI, IMul32RR, IMul32RI,
  IAnd32RR, IAnd32RI, IOr32RR, IOr32RI, IXor32RR, IXor32RI,
  IShl32RR, IShl32RI, IAshr32RR, IAshr32RI,
  Sext32,
  IAluMem,
  FAdd, FSub, FMul, FDiv,
  FAluMem,
  CvtSiToF, CvtFToSi, CvtF32F64, CvtF64F32,
  // Compares/branches specialized by predicate (order matches ir::CmpPred,
  // int forms RR/RI interleaved) — the predicate dispatch that would
  // otherwise be a second data-dependent switch in the hottest handlers.
  SetEqRR, SetEqRI, SetNeRR, SetNeRI, SetLtRR, SetLtRI,
  SetLeRR, SetLeRI, SetGtRR, SetGtRI, SetGeRR, SetGeRI,
  FSetEq, FSetNe, FSetLt, FSetLe, FSetGt, FSetGe,
  BrEqRR, BrEqRI, BrNeRR, BrNeRI, BrLtRR, BrLtRI,
  BrLeRR, BrLeRI, BrGtRR, BrGtRI, BrGeRR, BrGeRI,
  FBrEq, FBrNe, FBrLt, FBrLe, FBrGt, FBrGe,
  Jmp,
  Call, Ret, MathCall,
  Emit, EmitI, Abort, Barrier, SentinelTrap,
};

/// Index of the hardwired-zero register slot in MachineState::g (one past
/// the architectural registers). The decoder rewrites absent memory-operand
/// base/index registers to this slot, so an effective address is always
/// disp + g[base] + g[index]*scale with no branches.
constexpr std::int16_t kZeroSlot = backend::kNumRegs;

struct CallRef {
  std::int32_t module, func;
};

/// One predecoded instruction. Kept to 32 bytes (two per cache line); the
/// two unions are disjoint by construction — no instruction uses more than
/// one member of each (mem ops use disp, immediate forms imm, FMovImm
/// fimm, Call retPC + call; branches use target).
struct DInst {
  DKind kind = DKind::Mov;
  std::uint8_t sub = 0;   // CmpPred / fused-ALU MOp / MathFn
  /// 32-bit wrap amount: 0 (full width) or 32. A narrow result r becomes
  /// (int64)(r << sext) >> sext — branch-free sign-extension of the low
  /// half. Also doubles as the narrow flag for div/rem, FP rounding and
  /// conversions.
  std::uint8_t sext = 0;
  backend::MType memType = backend::MType::I64; // IAluMem/FAluMem loads
  std::int16_t dst = backend::kNoReg;
  std::int16_t src1 = backend::kNoReg;
  std::int16_t src2 = backend::kNoReg;
  std::int16_t base = kZeroSlot;
  std::int16_t index = kZeroSlot;
  /// log2 of the memory-operand index scale (scales are element sizes,
  /// always powers of two); for shifts, the shift-count mask (31/63).
  std::uint16_t scale = 0;
  union {
    std::int32_t target = -1; // branch target (instruction index)
    CallRef call;             // Call: resolved callee
  };
  union {
    std::uint64_t disp = 0;   // displacement + resolved global address
    std::int64_t imm;
    double fimm;
    std::uint64_t retPC;      // Call: precomputed return address
  };
};
static_assert(sizeof(DInst) == 32, "DInst should stay two per cache line");

struct DecodedFunction {
  /// One DInst per MIR instruction, in order.
  std::vector<DInst> code;
};

struct DecodedImage {
  /// Indexed [module][function]; parallel to the Image's layout.
  std::vector<std::vector<DecodedFunction>> funcs;
};

/// Translate a linked Image. Throws care::Error on an unresolved extern
/// call (i.e. decoding before link()).
DecodedImage decodeImage(const Image& image);

} // namespace care::vm
