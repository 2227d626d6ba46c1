#include "common/varint.h"

#include <limits>

namespace rfidclean {

namespace internal {

VarintRun DecodeVarintsScalar(const unsigned char* data, std::size_t size,
                              std::uint32_t* out, std::size_t max_values) {
  const unsigned char* cursor = data;
  const unsigned char* end = data + size;
  std::size_t count = 0;
  while (count < max_values && cursor != end) {
    const unsigned char* next = cursor;
    std::uint64_t value = 0;
    if (!GetVarint(&next, end, &value) || next - cursor > 5 ||
        value > std::numeric_limits<std::uint32_t>::max()) {
      break;
    }
    out[count++] = static_cast<std::uint32_t>(value);
    cursor = next;
  }
  return VarintRun{count, static_cast<std::size_t>(cursor - data)};
}

}  // namespace internal

VarintRun DecodeVarints(const unsigned char* data, std::size_t size,
                        std::uint32_t* out, std::size_t max_values) {
#if RFIDCLEAN_SIMD_ENABLED
  if (simd::VectorKernelsActive()) {
    return internal::DecodeVarintsAvx2(data, size, out, max_values);
  }
#endif
  return internal::DecodeVarintsScalar(data, size, out, max_values);
}

}  // namespace rfidclean
