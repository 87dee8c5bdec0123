#include "mvbt/key.h"

namespace rdftx::mvbt {

std::string Key3::ToString() const {
  std::string out = "(";
  out.append(std::to_string(a)).append(",").append(std::to_string(b));
  out.append(",").append(std::to_string(c)).append(")");
  return out;
}

}  // namespace rdftx::mvbt
