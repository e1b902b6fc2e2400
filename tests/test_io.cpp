// Binary serialization round trips for matrices and datasets.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graph/io.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("dms_test_" + name)).string();
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : created_) std::filesystem::remove(p);
  }
  std::string track(const std::string& p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(IoTest, CsrRoundTrip) {
  const CsrMatrix m = testutil::random_csr(37, 23, 0.2, 301);
  const std::string path = track(temp_path("csr.bin"));
  save_csr(m, path);
  EXPECT_TRUE(load_csr(path) == m);
}

TEST_F(IoTest, EmptyCsrRoundTrip) {
  const CsrMatrix m(5, 9);
  const std::string path = track(temp_path("csr_empty.bin"));
  save_csr(m, path);
  const CsrMatrix loaded = load_csr(path);
  EXPECT_EQ(loaded.rows(), 5);
  EXPECT_EQ(loaded.cols(), 9);
  EXPECT_EQ(loaded.nnz(), 0);
}

TEST_F(IoTest, LoadRejectsBadMagic) {
  const std::string path = track(temp_path("bad_magic.bin"));
  std::ofstream os(path, std::ios::binary);
  os << "garbage data that is not a dms file";
  os.close();
  EXPECT_THROW(load_csr(path), DmsError);
}

TEST_F(IoTest, LoadRejectsTruncatedFile) {
  const CsrMatrix m = testutil::random_csr(20, 20, 0.3, 302);
  const std::string path = track(temp_path("trunc.bin"));
  save_csr(m, path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW(load_csr(path), DmsError);
}

TEST_F(IoTest, LoadRejectsMissingFile) {
  EXPECT_THROW(load_csr(temp_path("does_not_exist.bin")), DmsError);
}

TEST_F(IoTest, DatasetRoundTrip) {
  const Dataset ds = make_planted_dataset(128, 4, 8, 6.0, 0.8, 5);
  const std::string path = track(temp_path("dataset.bin"));
  save_dataset(ds, path);
  const Dataset loaded = load_dataset(path);
  EXPECT_EQ(loaded.name, ds.name);
  EXPECT_TRUE(loaded.graph.adjacency() == ds.graph.adjacency());
  EXPECT_TRUE(loaded.features == ds.features);
  EXPECT_EQ(loaded.labels, ds.labels);
  EXPECT_EQ(loaded.num_classes, ds.num_classes);
  EXPECT_EQ(loaded.train_idx, ds.train_idx);
  EXPECT_EQ(loaded.val_idx, ds.val_idx);
  EXPECT_EQ(loaded.test_idx, ds.test_idx);
}

TEST_F(IoTest, LoadDatasetRejectsMalformedFields) {
  // Each case saves a small dataset with one field corrupted; loading must
  // reject it at the boundary instead of handing out-of-range ids onward.
  const Dataset good = make_planted_dataset(64, 4, 8, 6.0, 0.8, 5);
  const index_t n = good.num_vertices();
  ASSERT_FALSE(good.train_idx.empty());
  ASSERT_FALSE(good.val_idx.empty());
  ASSERT_FALSE(good.test_idx.empty());
  const auto expect_rejected = [&](const Dataset& bad, const std::string& what) {
    const std::string path = track(temp_path("bad_" + what + ".bin"));
    save_dataset(bad, path);
    EXPECT_THROW(load_dataset(path), DmsError) << what;
  };
  Dataset d = good;
  d.num_classes = 0;
  expect_rejected(d, "num_classes");
  d = good;
  d.labels[3] = d.num_classes;
  expect_rejected(d, "label_high");
  d = good;
  d.labels[0] = -1;
  expect_rejected(d, "label_negative");
  d = good;
  d.train_idx[0] = n;
  expect_rejected(d, "train_idx");
  d = good;
  d.val_idx.back() = -1;
  expect_rejected(d, "val_idx");
  d = good;
  d.test_idx[0] = n + 7;
  expect_rejected(d, "test_idx");
}

TEST_F(IoTest, LoadDatasetRejectsNegativeFeatureColumns) {
  const Dataset ds = make_planted_dataset(64, 4, 8, 6.0, 0.8, 6);
  const std::string path = track(temp_path("bad_fcols.bin"));
  save_dataset(ds, path);
  // The feature column count sits right before the fields that trail it:
  // feature data, labels, num_classes, and the three splits.
  const auto vec_bytes = [](const auto& v) {
    return sizeof(std::int64_t) + v.size() * sizeof(v[0]);
  };
  const std::size_t trailing =
      static_cast<std::size_t>(ds.features.size()) * sizeof(float) +
      vec_bytes(ds.labels) + sizeof(std::uint32_t) + vec_bytes(ds.train_idx) +
      vec_bytes(ds.val_idx) + vec_bytes(ds.test_idx);
  const auto offset = static_cast<std::streamoff>(
      std::filesystem::file_size(path) - trailing - sizeof(std::int64_t));
  {
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekg(offset);
    std::int64_t cols = 0;
    fs.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    ASSERT_EQ(cols, ds.feature_dim());
    cols = -3;
    fs.seekp(offset);
    fs.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  }
  EXPECT_THROW(load_dataset(path), DmsError);
}

TEST_F(IoTest, MatrixMarketExportIsParseable) {
  const CsrMatrix m = CsrMatrix::from_triplets(2, 3, {0, 1}, {2, 0}, {1.5, -2.0});
  const std::string path = track(temp_path("mm.mtx"));
  write_matrix_market(m, path);
  std::ifstream is(path);
  std::string header;
  std::getline(is, header);
  EXPECT_NE(header.find("MatrixMarket"), std::string::npos);
  index_t rows = 0, cols = 0;
  nnz_t nnz = 0;
  is >> rows >> cols >> nnz;
  EXPECT_EQ(rows, 2);
  EXPECT_EQ(cols, 3);
  EXPECT_EQ(nnz, 2);
  index_t r = 0, c = 0;
  double v = 0;
  is >> r >> c >> v;  // 1-indexed
  EXPECT_EQ(r, 1);
  EXPECT_EQ(c, 3);
  EXPECT_DOUBLE_EQ(v, 1.5);
}

}  // namespace
}  // namespace dms
