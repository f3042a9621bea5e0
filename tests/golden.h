// Byte-compares a rendered document against a checked-in golden file.
//
// Documents are deterministic by design (fixed key order, %.17g
// numbers, no timestamps), so their bytes are a constant of the
// implementation. If an intentional change fails a golden, regenerate
// it by running the test binary with STRIP_UPDATE_GOLDEN=1 and review
// the diff like any other golden update.

#ifndef STRIP_TESTS_GOLDEN_H_
#define STRIP_TESTS_GOLDEN_H_

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace strip {

// `relative_path` is under tests/, e.g. "obs/testdata/x_golden.json".
inline void ExpectMatchesGolden(const std::string& doc,
                                const std::string& relative_path) {
  const std::string path =
      std::string(STRIP_TEST_SOURCE_DIR) + "/" + relative_path;
  if (std::getenv("STRIP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << doc;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with STRIP_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(doc, golden.str())
      << path << " drifted; if intended, regenerate with "
      << "STRIP_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace strip

#endif  // STRIP_TESTS_GOLDEN_H_
