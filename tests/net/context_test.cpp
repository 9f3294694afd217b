// Context::extension<T>(): the per-scenario singleton seam that higher
// layers (telemetry::Tracer, tcp::FluidEngine) attach their state through.
#include <gtest/gtest.h>

#include "net/context.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace scidmz::net {
namespace {

struct CountingExtension {
  static inline int live = 0;
  CountingExtension() { ++live; }
  ~CountingExtension() { --live; }
  int value = 0;
};

TEST(ContextExtension, IsPerContextSingleton) {
  sim::Simulator sim;
  sim::Rng rng{1};
  Context ctx{sim, rng};
  CountingExtension& a = ctx.extension<CountingExtension>();
  CountingExtension& b = ctx.extension<CountingExtension>();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(CountingExtension::live, 1);
  a.value = 7;
  EXPECT_EQ(b.value, 7);

  {
    // A second Context gets its own instance: sweep cells never share state.
    sim::Simulator sim2;
    sim::Rng rng2{2};
    Context ctx2{sim2, rng2};
    CountingExtension& c = ctx2.extension<CountingExtension>();
    EXPECT_NE(&c, &a);
    EXPECT_EQ(c.value, 0);
    EXPECT_EQ(CountingExtension::live, 2);
  }
  // ... and destroys it with itself.
  EXPECT_EQ(CountingExtension::live, 1);
}

}  // namespace
}  // namespace scidmz::net
