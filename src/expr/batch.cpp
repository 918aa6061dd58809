// The lane-by-lane reference of the batched expression VM: what
// Compiled::eval_batch runs for programs with jumps and re-runs when any
// lane raises.  The fast path shares eval's dispatch loop (compile.cpp);
// see compile.hpp for the bit-identity contract.
#include <vector>

#include "prophet/expr/compile.hpp"

namespace prophet::expr {

namespace {

/// Scalar view of one lane of a batched call: forwards
/// UserFunctions::call to the batched table's call_lane so the fallback
/// reproduces the scalar VM exactly (same values, same exceptions, same
/// lane order).
class LaneFunctions final : public UserFunctions {
 public:
  LaneFunctions(const BatchUserFunctions* batch, std::size_t lane)
      : batch_(batch), lane_(lane) {}

  [[nodiscard]] double call(int id,
                            std::span<const double> args) const override {
    return batch_->call_lane(id, args, lane_);
  }

 private:
  const BatchUserFunctions* batch_;
  std::size_t lane_;
};

}  // namespace

// The fallback: evaluate every lane through the scalar VM against that
// lane's view of the frame (each bound slot's lane array offset by the
// lane index).  Errors therefore surface from the lowest erroring lane
// with the scalar VM's exact message — the reference semantics the
// batched fast path must (and does) match by re-running through here
// whenever any lane raises.
void Compiled::eval_batch_lanes(const BatchEvalContext& ctx,
                                double* out) const {
  std::vector<double*> frame(ctx.frame.size());
  std::vector<double> args(ctx.args.size());
  for (std::size_t lane = 0; lane < ctx.width; ++lane) {
    for (std::size_t slot = 0; slot < frame.size(); ++slot) {
      frame[slot] =
          ctx.frame[slot] != nullptr ? ctx.frame[slot] + lane : nullptr;
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      args[i] = ctx.args[i][lane];
    }
    const LaneFunctions lane_functions(ctx.functions, lane);
    EvalContext scalar;
    scalar.frame = frame;
    scalar.args = args;
    scalar.functions =
        ctx.functions != nullptr ? &lane_functions : nullptr;
    scalar.pid = ctx.pid;
    scalar.tid = ctx.tid;
    scalar.uid = ctx.uid;
    scalar.counters = ctx.counters;
    scalar.budget = ctx.budget;
    out[lane] = eval(scalar);
  }
}

}  // namespace prophet::expr
