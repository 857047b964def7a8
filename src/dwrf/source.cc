#include "source.h"

#include "common/logging.h"

namespace dsi::dwrf {

void
RandomAccessSource::read(Bytes offset, Bytes len, Buffer &out) const
{
    if (readChecked(offset, len, out) != IoStatus::Ok) {
        dsi_fatal("read [%llu, +%llu) unavailable",
                  static_cast<unsigned long long>(offset),
                  static_cast<unsigned long long>(len));
    }
}

void
MemorySource::read(Bytes offset, Bytes len, Buffer &out) const
{
    dsi_assert(offset + len <= data_.size(),
               "read [%llu, %llu) beyond EOF %zu",
               static_cast<unsigned long long>(offset),
               static_cast<unsigned long long>(offset + len),
               data_.size());
    out.assign(data_.begin() + static_cast<ptrdiff_t>(offset),
               data_.begin() + static_cast<ptrdiff_t>(offset + len));
    trace_.record(offset, len);
}

} // namespace dsi::dwrf
