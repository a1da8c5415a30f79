#include "storage/io_stats.h"

#include <sstream>

namespace swst {

IoStats IoStats::Since(const IoStats& snapshot) const {
  IoStats d;
  d.logical_reads = logical_reads - snapshot.logical_reads;
  d.physical_reads = physical_reads - snapshot.physical_reads;
  d.physical_writes = physical_writes - snapshot.physical_writes;
  d.pages_allocated = pages_allocated - snapshot.pages_allocated;
  d.pages_freed = pages_freed - snapshot.pages_freed;
  d.coalesced_writes = coalesced_writes - snapshot.coalesced_writes;
  d.readahead_pages = readahead_pages - snapshot.readahead_pages;
  d.readahead_hits = readahead_hits - snapshot.readahead_hits;
  d.wal_forced_syncs = wal_forced_syncs - snapshot.wal_forced_syncs;
  d.pages_compressed = pages_compressed - snapshot.pages_compressed;
  d.compression_saved_bytes =
      compression_saved_bytes - snapshot.compression_saved_bytes;
  return d;
}

std::string IoStats::ToString() const {
  std::ostringstream os;
  os << "IoStats{logical_reads=" << logical_reads
     << ", physical_reads=" << physical_reads
     << ", physical_writes=" << physical_writes
     << ", pages_allocated=" << pages_allocated
     << ", pages_freed=" << pages_freed
     << ", coalesced_writes=" << coalesced_writes
     << ", readahead_pages=" << readahead_pages
     << ", readahead_hits=" << readahead_hits
     << ", wal_forced_syncs=" << wal_forced_syncs
     << ", pages_compressed=" << pages_compressed
     << ", compression_saved_bytes=" << compression_saved_bytes << "}";
  return os.str();
}

}  // namespace swst
