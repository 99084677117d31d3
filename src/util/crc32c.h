// CRC32C (Castagnoli, polynomial 0x1EDC6F41): the per-section checksum of
// pool file format v3. Chosen over the legacy whole-payload FNV-1a because
// a section granularity needs a checksum with well-understood burst/bit
// error detection, and CRC32C is the storage-stack standard (ext4, btrfs,
// RocksDB, iSCSI). It also seals every wire frame body (src/net/wire.h).
// x86-64 CPUs with SSE4.2 take the crc32 instruction, chosen at run time;
// others take a byte table. Both give the same values, so files and frames
// verify identically on every CPU.
#ifndef POE_UTIL_CRC32C_H_
#define POE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace poe {

/// Extends a running CRC32C with `n` bytes. Pass the previous return value
/// as `crc` to checksum data in chunks; start from 0.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The byte-table Crc32cExtend: the fallback on CPUs without SSE4.2 and
/// the reference the hardware path is tested against.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

/// CRC32C of one contiguous buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace poe

#endif  // POE_UTIL_CRC32C_H_
