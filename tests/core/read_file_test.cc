#include "src/core/read_file.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace mihn::core {
namespace {

std::string WriteFileOfSize(const std::string& name, size_t bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::string block(4096, 'x');
  for (size_t left = bytes; left > 0;) {
    const size_t n = left < block.size() ? left : block.size();
    out.write(block.data(), static_cast<std::streamsize>(n));
    left -= n;
  }
  return path;
}

TEST(ReadBoundedFileTest, FileAtCeilingIsReadWhole) {
  const std::string path = WriteFileOfSize("read_file_at_ceiling", kMaxInputFileBytes);
  std::string text;
  std::string error;
  ASSERT_TRUE(ReadBoundedFile(path, &text, &error)) << error;
  EXPECT_EQ(text.size(), kMaxInputFileBytes);
  EXPECT_EQ(text.find_first_not_of('x'), std::string::npos);
}

TEST(ReadBoundedFileTest, OneBytePastCeilingFails) {
  const std::string path = WriteFileOfSize("read_file_past_ceiling", kMaxInputFileBytes + 1);
  std::string text;
  std::string error;
  EXPECT_FALSE(ReadBoundedFile(path, &text, &error));
  EXPECT_EQ(error, path + ": exceeds 1048576 bytes");
}

TEST(ReadBoundedFileTest, MissingFileCannotOpen) {
  std::string text;
  std::string error;
  EXPECT_FALSE(ReadBoundedFile("/no/such/dir/file.chaos", &text, &error));
  EXPECT_EQ(error, "cannot open /no/such/dir/file.chaos");
}

TEST(ReadBoundedFileTest, EmptyFileReadsEmpty) {
  const std::string path = WriteFileOfSize("read_file_empty", 0);
  std::string text = "stale";
  std::string error;
  ASSERT_TRUE(ReadBoundedFile(path, &text, &error)) << error;
  EXPECT_TRUE(text.empty());
}

}  // namespace
}  // namespace mihn::core
