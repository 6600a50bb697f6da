// Program image: module loading, address-space layout, linking.
//
// Mirrors the parts of the Linux loader CARE interacts with:
//  * the main executable loads at a low fixed base, shared libraries at
//    high bases — Safeguard keys app faults by absolute PC and library
//    faults by PC-minus-base (the paper's dladdr scheme, §4);
//  * every global lands on its own page(s) with an unmapped guard gap, so
//    out-of-bounds addresses fault instead of silently hitting a neighbour;
//  * extern references are resolved by name across loaded modules.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/mir.hpp"
#include "vm/memory.hpp"

namespace care::vm {

struct DecodedImage;
class JitImage;

struct FuncRef {
  std::int32_t module = -1;
  std::int32_t func = -1;
  bool valid() const { return module >= 0; }
};

struct LoadedModule {
  const backend::MModule* mod = nullptr;
  bool isLibrary = false;
  std::uint64_t codeBase = 0;
  std::uint64_t codeEnd = 0;
  std::vector<std::uint64_t> funcBase;    // code address of each function
  /// Flat profile-counter slot of each function's instruction 0. Every
  /// function owns code.size() consecutive slots, laid out in load order
  /// across modules.
  std::vector<std::size_t> profileBase;
  std::vector<std::uint64_t> globalAddr;  // data address of each global
  std::vector<FuncRef> externTargets;     // resolved extern table
};

/// Where a PC points: module / function / instruction.
struct CodeLoc {
  std::int32_t module = -1;
  std::int32_t func = -1;
  std::int32_t instr = -1;
  bool valid() const { return module >= 0; }
};

class Image {
public:
  Image();
  ~Image();
  Image(const Image&) = delete;
  Image& operator=(const Image&) = delete;

  /// Load a module; the first loaded module is the main executable, later
  /// ones are shared libraries. The MModule must outlive the Image.
  std::int32_t load(const backend::MModule* mod);

  /// Resolve extern tables across all loaded modules. Throws care::Error on
  /// unresolved symbols.
  void link();

  std::size_t numModules() const { return modules_.size(); }
  const LoadedModule& module(std::size_t i) const { return modules_[i]; }

  /// dladdr analogue: which module/function/instruction does `pc` hit?
  CodeLoc locate(std::uint64_t pc) const;

  /// Total profile-counter slots over every loaded function.
  std::size_t profileSlots() const { return profileSlots_; }

  /// PC of instruction `instr` of function `func` in module `module`.
  std::uint64_t pcOf(std::int32_t module, std::int32_t func,
                     std::int32_t instr) const;

  const backend::MFunction& function(const CodeLoc& loc) const;
  const backend::MInst& instruction(const CodeLoc& loc) const;

  /// Find a function by name across modules (first match).
  FuncRef findFunction(const std::string& name) const;

  /// Map and initialize global data + the stack; returns the initial stack
  /// pointer (stack top).
  std::uint64_t initMemory(Memory& mem) const;

  /// The predecoded streams the JIT compiles, built lazily (and
  /// thread-safely) on first use. Must be called after link().
  const DecodedImage& decoded() const;

  /// The per-image native code cache for the JIT backend, built lazily on
  /// first use (same discipline as decoded(), which it builds on). The
  /// returned object is internally synchronized — campaign Executors on
  /// many threads share it.
  JitImage& jit() const;

  static constexpr std::uint64_t kAppCodeBase = 0x0000000000400000ull;
  static constexpr std::uint64_t kAppDataBase = 0x0000000010000000ull;
  static constexpr std::uint64_t kLibBase = 0x00007f0000000000ull;
  static constexpr std::uint64_t kLibStride = 0x0000000100000000ull;
  static constexpr std::uint64_t kLibDataOff = 0x0000000080000000ull;
  static constexpr std::uint64_t kStackTop = 0x00007fffffff0000ull;
  static constexpr std::uint64_t kStackSize = 4ull << 20; // 4 MiB
  /// Popping this PC ends the program normally (pushed below the entry
  /// frame by Executor::run).
  static constexpr std::uint64_t kHaltPC = 0xfffffffffffffff0ull;

private:
  std::vector<LoadedModule> modules_;
  std::size_t profileSlots_ = 0;
  mutable std::once_flag decodeOnce_;
  mutable std::unique_ptr<const DecodedImage> decoded_;
  mutable std::once_flag jitOnce_;
  mutable std::unique_ptr<JitImage> jit_;
};

} // namespace care::vm
