// Bounded whole-file reads for the text formats read at the system
// boundary (campaign, sweep and topology files).
//
// Streaming rdbuf() into a string trusts the file: an endless or huge input
// (/dev/zero, a mistyped path to a disk image) grows the string until the
// allocator gives up. ReadBoundedFile drains the file in fixed chunks and
// fails as soon as the total passes kMaxInputFileBytes.

#ifndef MIHN_SRC_CORE_READ_FILE_H_
#define MIHN_SRC_CORE_READ_FILE_H_

#include <array>
#include <cstddef>
#include <fstream>
#include <string>

namespace mihn::core {

// The largest input file accepted. The committed campaign and sweep files
// are under 2 KB.
inline constexpr size_t kMaxInputFileBytes = size_t{1} << 20;

// Reads all of |path| into |*text|. On failure returns false with |*error|
// set to "cannot open <path>" or "<path>: exceeds <kMaxInputFileBytes> bytes".
inline bool ReadBoundedFile(const std::string& path, std::string* text, std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    *error = "cannot open " + path;
    return false;
  }
  text->clear();
  std::array<char, 64 * 1024> chunk{};
  while (file.read(chunk.data(), chunk.size()) || file.gcount() > 0) {
    const size_t got = static_cast<size_t>(file.gcount());
    if (text->size() + got > kMaxInputFileBytes) {
      *error = path + ": exceeds " + std::to_string(kMaxInputFileBytes) + " bytes";
      return false;
    }
    text->append(chunk.data(), got);
  }
  return true;
}

}  // namespace mihn::core

#endif  // MIHN_SRC_CORE_READ_FILE_H_
