// Tests for MachineParams text serialization.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/params_io.hpp"
#include "platforms/platform_db.hpp"

namespace {

namespace co = archline::core;
namespace pl = archline::platforms;

TEST(ParamsIo, RoundTripIsExact) {
  for (const pl::PlatformSpec& spec : pl::all_platforms()) {
    const co::MachineParams m = spec.machine();
    const co::MachineParams back =
        co::machine_from_text(co::to_text(m, spec.name));
    EXPECT_DOUBLE_EQ(back.tau_flop, m.tau_flop) << spec.name;
    EXPECT_DOUBLE_EQ(back.eps_flop, m.eps_flop) << spec.name;
    EXPECT_DOUBLE_EQ(back.tau_mem, m.tau_mem) << spec.name;
    EXPECT_DOUBLE_EQ(back.eps_mem, m.eps_mem) << spec.name;
    EXPECT_DOUBLE_EQ(back.pi1, m.pi1) << spec.name;
    EXPECT_DOUBLE_EQ(back.delta_pi, m.delta_pi) << spec.name;
  }
}

TEST(ParamsIo, UncappedSerializesAsInf) {
  const co::MachineParams m =
      pl::platform("GTX Titan").machine().without_cap();
  const std::string text = co::to_text(m);
  EXPECT_NE(text.find("delta_pi = inf"), std::string::npos);
  EXPECT_TRUE(co::machine_from_text(text).uncapped());
}

TEST(ParamsIo, NameBecomesComment) {
  const std::string text =
      co::to_text(pl::platform("Xeon Phi").machine(), "Xeon Phi");
  EXPECT_EQ(text.rfind("# Xeon Phi\n", 0), 0u);
}

TEST(ParamsIo, CommentsAndBlankLinesIgnored) {
  const co::MachineParams m = pl::platform("NUC CPU").machine();
  const std::string text =
      "# a comment\n\n" + co::to_text(m) + "\n# trailing\n";
  EXPECT_NO_THROW((void)co::machine_from_text(text));
}

TEST(ParamsIo, WhitespaceTolerant) {
  const std::string text =
      "tau_flop =  1e-11 \n eps_flop= 3e-11\ntau_mem = 4e-12\n"
      "eps_mem = 2.7e-10\npi1 = 123\ndelta_pi = 164\n";
  const co::MachineParams m = co::machine_from_text(text);
  EXPECT_DOUBLE_EQ(m.pi1, 123.0);
  EXPECT_DOUBLE_EQ(m.tau_flop, 1e-11);
}

TEST(ParamsIo, MissingKeyThrows) {
  const std::string text = "tau_flop = 1e-11\neps_flop = 3e-11\n";
  EXPECT_THROW((void)co::machine_from_text(text), std::invalid_argument);
}

TEST(ParamsIo, MalformedLineThrows) {
  EXPECT_THROW((void)co::machine_from_text("tau_flop 1e-11\n"),
               std::invalid_argument);
}

TEST(ParamsIo, BadNumberThrows) {
  const std::string text =
      "tau_flop = abc\neps_flop = 1\ntau_mem = 1\neps_mem = 1\n"
      "pi1 = 1\ndelta_pi = 1\n";
  EXPECT_THROW((void)co::machine_from_text(text), std::exception);
}

TEST(ParamsIo, InvalidMachineRejected) {
  // Parses fine but violates model invariants (negative pi1).
  const std::string text =
      "tau_flop = 1e-11\neps_flop = 3e-11\ntau_mem = 4e-12\n"
      "eps_mem = 2.7e-10\npi1 = -5\ndelta_pi = 164\n";
  EXPECT_THROW((void)co::machine_from_text(text), std::invalid_argument);
}

TEST(ParamsIo, UnknownKeysIgnored) {
  const co::MachineParams m = pl::platform("APU CPU").machine();
  const std::string text = co::to_text(m) + "vendor = AMD\n";
  EXPECT_NO_THROW((void)co::machine_from_text(text));
}

}  // namespace
