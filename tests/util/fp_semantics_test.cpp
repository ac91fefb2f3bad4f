// Canary for the build's floating-point semantics. Column-generation round
// counts on degenerate masters are pinned exactly, and they move when the
// compiler fuses a*b + c into one fused multiply-add (one rounding instead
// of two). The top-level CMakeLists.txt compiles everything with
// -ffp-contract=off so every build type, compiler and ISA computes the same
// bits; this test fails if some flag brings contraction back.

#include <gtest/gtest.h>

#include <cmath>

namespace mrwsn {
namespace {

// Not inline, and fed from volatiles, so the optimiser can neither fold the
// expression nor see its operands: what runs is the code the flags produce.
[[gnu::noinline]] double multiply_add(double a, double b, double c) {
  return a * b + c;
}

TEST(FloatingPointSemantics, MultiplyAddIsNotContracted) {
  // a*a = 1 + 2^-29 + 2^-60 exactly. Rounded to a double it is 1 + 2^-29,
  // which c cancels to 0. A fused multiply-add keeps the 2^-60.
  volatile double a = 1.0 + std::ldexp(1.0, -30);
  volatile double c = -(1.0 + std::ldexp(1.0, -29));
  const double r = multiply_add(a, a, c);
  EXPECT_EQ(r, 0.0) << "a*a + c = " << std::hexfloat << r
                    << " (0x1p-60 means the build fuses multiply-adds)";
}

}  // namespace
}  // namespace mrwsn
