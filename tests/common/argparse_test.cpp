#include "common/argparse.hpp"

#include <gtest/gtest.h>

namespace clash {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return ArgParser(int(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm) {
  const auto p = parse({"prog", "--servers=100", "--scale=0.5"});
  EXPECT_EQ(p.get_int("servers", 0), 100);
  EXPECT_DOUBLE_EQ(p.get_double("scale", 0), 0.5);
}

TEST(ArgParser, SpaceForm) {
  const auto p = parse({"prog", "--name", "clash"});
  EXPECT_EQ(p.get("name", ""), "clash");
}

TEST(ArgParser, BooleanFlag) {
  const auto p = parse({"prog", "--full"});
  EXPECT_TRUE(p.get_bool("full", false));
  EXPECT_FALSE(p.get_bool("absent", false));
  EXPECT_TRUE(p.get_bool("absent", true));
}

TEST(ArgParser, Fallbacks) {
  const auto p = parse({"prog"});
  EXPECT_EQ(p.get("missing", "dflt"), "dflt");
  EXPECT_EQ(p.get_int("missing", 9), 9);
}

TEST(ArgParser, Positional) {
  const auto p = parse({"prog", "input.txt", "--flag", "output.txt"});
  // "--flag output.txt" binds output.txt as the flag's value.
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "input.txt");
  EXPECT_EQ(p.get("flag", ""), "output.txt");
}

TEST(ArgParser, ProgramName) {
  const auto p = parse({"prog"});
  EXPECT_EQ(p.program(), "prog");
}

TEST(ArgParser, ReproListsTheGivenFlagsInOrder) {
  const auto p = parse({"./bench", "--seed=7", "--extra"});
  EXPECT_EQ(p.repro({{"servers", "16"}, {"seed", "7"}}),
            "./bench --servers=16 --seed=7");
  EXPECT_EQ(p.repro({}), "./bench");
}

TEST(ArgParser, BoolSpellings) {
  const auto p = parse({"prog", "--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(p.get_bool("a", false));
  EXPECT_TRUE(p.get_bool("b", false));
  EXPECT_TRUE(p.get_bool("c", false));
  EXPECT_FALSE(p.get_bool("d", true));
}

}  // namespace
}  // namespace clash
