#include "pim/word.h"

namespace wavepim::pim::word {

RowPattern classify_rows(std::span<const std::uint32_t> rows) {
  RowPattern pattern;
  pattern.start = rows.empty() ? 0 : rows.front();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] != rows[i - 1] + 1) {
      pattern.kind = RowPattern::Kind::Indexed;
      return pattern;
    }
  }
  return pattern;
}

}  // namespace wavepim::pim::word
