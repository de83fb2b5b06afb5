// Round-trip tests for the on-disk index format (the paper's disk-resident
// chunks): every component — store, chunked index, mapping table, full
// per-rank bundle — written to disk and mapped back (the one warm-start
// path) matches the built original, queries agree, and corrupted or
// mismatched files (bad magic, wrong kind or version, trailing bytes,
// flipped bits) are rejected with IoError. The whole-file bit-flip and
// truncation sweeps over mapped chunk files live in test_mmap_index.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/binary_io.hpp"
#include "common/mmap_file.hpp"
#include "index/serialize.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::index {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  SerializeTest() {
    params_.resolution = 0.01;
    params_.max_fragment_mz = 2000.0;
    params_.fragments.max_fragment_charge = 1;
  }

  PeptideStore make_store() {
    PeptideStore store(&mods_);
    store.add(chem::Peptide("PEPTIDEK"), mods_);
    store.add(chem::Peptide("MKWVTFISLLK"), mods_);
    store.add(chem::Peptide("MGGGK", {{0, 2}}, mods_), mods_);  // modified
    store.add(chem::Peptide("GGGGGGK"), mods_);
    return store;
  }

  static std::string bytes_of(const ChunkedIndex& index) {
    std::stringstream buffer;
    index.save(buffer);
    return buffer.str();
  }

  /// Writes `bytes` to a scratch file and returns its path.
  static std::string write_scratch(const std::string& bytes) {
    const std::string path = ::testing::TempDir() + "/lbe_ser.idx";
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  /// Maps a chunked-index file and materializes every chunk, so payload
  /// corruption surfaces here as well as metadata corruption.
  std::unique_ptr<ChunkedIndex> map_all(const std::string& path,
                                        const IndexParams& params) {
    auto index = ChunkedIndex::map_file(path, mods_, params);
    (void)index->num_postings();
    return index;
  }

  /// Maps a standalone peptide-store file (header at offset 0).
  PeptideStore map_store(const std::string& path) {
    const auto map = bin::MmapFile::open(path);
    bin::ByteReader reader(map->bytes());
    return PeptideStore::bind_mapped(reader, &mods_, map);
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  IndexParams params_;
};

TEST_F(SerializeTest, StoreRoundTrip) {
  const PeptideStore original = make_store();
  std::stringstream buffer;
  original.save(buffer);
  const PeptideStore loaded = map_store(write_scratch(buffer.str()));
  EXPECT_TRUE(loaded.mapped());
  ASSERT_EQ(loaded.size(), original.size());
  for (LocalPeptideId id = 0; id < original.size(); ++id) {
    EXPECT_EQ(loaded.materialize(id), original.materialize(id));
    EXPECT_DOUBLE_EQ(loaded.mass(id), original.mass(id));
  }
}

TEST_F(SerializeTest, EmptyStoreRoundTrip) {
  const PeptideStore empty(&mods_);
  std::stringstream buffer;
  empty.save(buffer);
  EXPECT_EQ(map_store(write_scratch(buffer.str())).size(), 0u);
}

TEST_F(SerializeTest, StoreMapRejectsTruncation) {
  const PeptideStore original = make_store();
  std::stringstream buffer;
  original.save(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(map_store(write_scratch(bytes)), IoError);
}

TEST_F(SerializeTest, ChunkedIndexRoundTripQueriesAgree) {
  ChunkingParams chunking;
  chunking.max_chunk_entries = 2;  // multiple chunks exercised
  const ChunkedIndex original(make_store(), mods_, params_, chunking);
  const std::string path = ::testing::TempDir() + "/lbe_index.bin";
  original.save_file(path);
  const auto loaded = ChunkedIndex::map_file(path, mods_, params_);

  EXPECT_EQ(loaded->num_chunks(), original.num_chunks());
  EXPECT_EQ(loaded->num_peptides(), original.num_peptides());

  QueryParams filter;
  filter.shared_peak_min = 1;
  for (const char* seq : {"PEPTIDEK", "MKWVTFISLLK", "GGGGGGK"}) {
    const auto spectrum = theospec::theoretical_spectrum(
        chem::Peptide(seq), mods_, params_.fragments);
    std::vector<Candidate> a;
    std::vector<Candidate> b;
    QueryWork wa;
    QueryWork wb;
    original.query(spectrum, filter, a, wa);
    loaded->query(spectrum, filter, b, wb);
    ASSERT_EQ(a.size(), b.size()) << seq;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].peptide, b[i].peptide);
      EXPECT_EQ(a[i].shared_peaks, b[i].shared_peaks);
      EXPECT_FLOAT_EQ(a[i].matched_intensity, b[i].matched_intensity);
    }
    EXPECT_EQ(wa.postings_touched, wb.postings_touched);
  }
  EXPECT_EQ(loaded->num_postings(), original.num_postings());
}

TEST_F(SerializeTest, MapRejectsBadMagic) {
  EXPECT_THROW(map_all(write_scratch("definitely not an index"), params_),
               IoError);
}

TEST_F(SerializeTest, MappedIndexMemoryAccountingSane) {
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const auto loaded = map_all(write_scratch(bytes_of(original)), params_);
  // A mapped index views the same packed stream (block directory
  // included) in the page cache, so it holds none of the built index's
  // array or store heap.
  EXPECT_GT(loaded->packed_posting_bytes(), 0u);
  EXPECT_EQ(loaded->packed_posting_bytes(), original.packed_posting_bytes());
  EXPECT_LT(loaded->store().memory_bytes(), original.store().memory_bytes());
  EXPECT_LT(loaded->memory_bytes(), original.memory_bytes());
}

TEST_F(SerializeTest, MappingTableRoundTrip) {
  const MappingTable original({{0, 2, 5}, {1, 4}, {3}});
  std::stringstream buffer;
  original.save(buffer);
  const MappingTable loaded = MappingTable::load(buffer);
  EXPECT_TRUE(loaded == original);
  EXPECT_EQ(loaded.num_ranks(), 3);
  EXPECT_EQ(loaded.total_peptides(), 6u);
  for (GlobalPeptideId g = 0; g < 6; ++g) {
    EXPECT_EQ(loaded.rank_of(g), original.rank_of(g)) << g;
    EXPECT_EQ(loaded.local_of(g), original.local_of(g)) << g;
  }
  EXPECT_EQ(loaded.to_global(1, 1), 4u);
}

TEST_F(SerializeTest, StaleVersionAndCorruptionAreDistinctErrors) {
  // The pipeline's warm-start path treats FormatVersionError as
  // "regenerate quietly" but lets any other IoError propagate, so the two
  // must stay distinguishable: a stale version field throws the subtype, a
  // flipped payload bit throws plain IoError.
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  const std::string bytes = bytes_of(original);

  std::string stale = bytes;
  stale[4] = 3;  // version u32 follows the 4-byte magic
  EXPECT_THROW(map_all(write_scratch(stale), params_),
               serialize::FormatVersionError);

  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] =
      static_cast<char>(corrupt[bytes.size() / 2] ^ 0x20);
  const std::string corrupt_path = write_scratch(corrupt);
  try {
    map_all(corrupt_path, params_);
    FAIL() << "corrupted file mapped successfully";
  } catch (const serialize::FormatVersionError&) {
    FAIL() << "payload corruption misreported as a version mismatch";
  } catch (const IoError&) {
    // Expected: corruption is fatal, not a rebuild trigger.
  }
}

TEST_F(SerializeTest, MapRejectsWrongComponentKind) {
  const PeptideStore store = make_store();
  std::stringstream buffer;
  store.save(buffer);
  // A valid peptide-store file is not a chunked index.
  EXPECT_THROW(map_all(write_scratch(buffer.str()), params_), IoError);
}

TEST_F(SerializeTest, MapRejectsTrailingBytes) {
  // The chunk extents must account for the whole file: nothing may hide
  // past the last chunk.
  const ChunkedIndex original(make_store(), mods_, params_,
                              ChunkingParams{});
  EXPECT_THROW(
      map_all(write_scratch(bytes_of(original) + "garbage"), params_),
      IoError);
}

TEST_F(SerializeTest, MappingTableRejectsFlippedBit) {
  const MappingTable original({{0, 2}, {1, 3}});
  std::stringstream buffer;
  original.save(buffer);
  std::string bytes = buffer.str();
  // Flip inside the payload (past the 12-byte header and 16-byte frame).
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x01);
  std::istringstream in(bytes);
  EXPECT_THROW(MappingTable::load(in), IoError);
}

TEST_F(SerializeTest, IndexBundleRoundTrip) {
  // Two ranks, hand-carved: rank 0 owns globals {0, 2}, rank 1 owns {1, 3}.
  IndexBundle bundle;
  bundle.lbe.partition.ranks = 2;
  bundle.index_params = params_;
  bundle.mapping = MappingTable({{0, 2}, {1, 3}});
  for (int rank = 0; rank < 2; ++rank) {
    PeptideStore store(&mods_);
    store.add(chem::Peptide(rank == 0 ? "PEPTIDEK" : "MKWVTFISLLK"), mods_);
    store.add(chem::Peptide(rank == 0 ? "GGGGGGK" : "MGGGK"), mods_);
    bundle.per_rank.push_back(std::make_unique<ChunkedIndex>(
        std::move(store), mods_, params_, ChunkingParams{}));
  }

  const std::string dir = ::testing::TempDir() + "/lbe_bundle_test";
  save_index_bundle(dir, bundle);
  const IndexBundle loaded = load_index_bundle(dir, mods_);

  EXPECT_TRUE(loaded.mapping == bundle.mapping);
  EXPECT_TRUE(serialize::same_lbe_params(loaded.lbe, bundle.lbe));
  EXPECT_TRUE(serialize::same_index_params(loaded.index_params, params_));
  ASSERT_EQ(loaded.ranks(), 2);
  for (int rank = 0; rank < 2; ++rank) {
    const auto& a = *bundle.per_rank[static_cast<std::size_t>(rank)];
    const auto& b = *loaded.per_rank[static_cast<std::size_t>(rank)];
    EXPECT_EQ(b.num_peptides(), a.num_peptides());
    EXPECT_EQ(b.num_postings(), a.num_postings());
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SerializeTest, BundleLoadRejectsMissingRankFile) {
  IndexBundle bundle;
  bundle.lbe.partition.ranks = 2;
  bundle.index_params = params_;
  bundle.mapping = MappingTable({{0, 2}, {1, 3}});
  for (int rank = 0; rank < 2; ++rank) {
    PeptideStore store(&mods_);
    store.add(chem::Peptide("PEPTIDEK"), mods_);
    store.add(chem::Peptide("GGGGGGK"), mods_);
    bundle.per_rank.push_back(std::make_unique<ChunkedIndex>(
        std::move(store), mods_, params_, ChunkingParams{}));
  }
  const std::string dir = ::testing::TempDir() + "/lbe_bundle_missing";
  save_index_bundle(dir, bundle);
  std::filesystem::remove(bundle_rank_path(dir, 1));
  EXPECT_THROW(load_index_bundle(dir, mods_), IoError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lbe::index
