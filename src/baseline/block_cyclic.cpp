#include "cacqr/baseline/block_cyclic.hpp"

#include "cacqr/support/uninit.hpp"

namespace cacqr::baseline {

ProcGrid2d::ProcGrid2d(rt::Comm world, int pr, int pc)
    : pr_(pr), pc_(pc), world_(std::move(world)) {
  ensure_dim(pr >= 1 && pc >= 1 && world_.size() == pr * pc,
             "ProcGrid2d: communicator has ", world_.size(),
             " ranks, need pr*pc = ", pr * pc);
  myrow_ = world_.rank() / pc;
  mycol_ = world_.rank() % pc;
  row_ = world_.split(myrow_, mycol_);
  col_ = world_.split(mycol_, myrow_);
}

BlockCyclicMatrix::BlockCyclicMatrix(i64 rows, i64 cols, i64 block,
                                     const ProcGrid2d& g)
    : rows_(rows),
      cols_(cols),
      block_(block),
      pr_(g.pr()),
      pc_(g.pc()),
      myrow_(g.myrow()),
      mycol_(g.mycol()) {
  ensure_dim(block >= 1, "BlockCyclicMatrix: block must be positive");
  ensure_dim(rows % (block * pr_) == 0 && cols % (block * pc_) == 0,
             "BlockCyclicMatrix: need block*pr | rows and block*pc | cols "
             "(got ", rows, "x", cols, ", block ", block, ", grid ", pr_,
             "x", pc_, ")");
  local_ = lin::Matrix(rows / pr_, cols / pc_);
}

i64 BlockCyclicMatrix::global_row(i64 li) const noexcept {
  const i64 lb = li / block_;
  return (myrow_ + lb * pr_) * block_ + li % block_;
}

i64 BlockCyclicMatrix::global_col(i64 lj) const noexcept {
  const i64 lb = lj / block_;
  return (mycol_ + lb * pc_) * block_ + lj % block_;
}

i64 BlockCyclicMatrix::local_row_cut(i64 block_k, i64 j) const noexcept {
  // Local blocks with global index strictly below block_k come first ...
  const i64 before = block_k > myrow_ ? ceil_div(block_k - myrow_, pr_) : 0;
  i64 cut = before * block_;
  // ... and when I own block_k itself, offset j cuts into it.
  if (block_k % pr_ == myrow_) cut += j;
  return cut;
}

i64 BlockCyclicMatrix::local_col_cut(i64 block_k) const noexcept {
  const i64 before = block_k > mycol_ ? ceil_div(block_k - mycol_, pc_) : 0;
  return before * block_;
}

BlockCyclicMatrix BlockCyclicMatrix::from_global(lin::ConstMatrixView a,
                                                 i64 block,
                                                 const ProcGrid2d& g) {
  BlockCyclicMatrix out(a.rows, a.cols, block, g);
  for (i64 lj = 0; lj < out.local_.cols(); ++lj) {
    const i64 gj = out.global_col(lj);
    for (i64 li = 0; li < out.local_.rows(); ++li) {
      out.local_(li, lj) = a(out.global_row(li), gj);
    }
  }
  return out;
}

BlockCyclicMatrix BlockCyclicMatrix::identity(i64 rows, i64 cols, i64 block,
                                              const ProcGrid2d& g) {
  BlockCyclicMatrix out(rows, cols, block, g);
  for (i64 lj = 0; lj < out.local_.cols(); ++lj) {
    const i64 gj = out.global_col(lj);
    for (i64 li = 0; li < out.local_.rows(); ++li) {
      if (out.global_row(li) == gj) out.local_(li, lj) = 1.0;
    }
  }
  return out;
}

lin::Matrix BlockCyclicMatrix::gather(const ProcGrid2d& g) const {
  const int p = pr_ * pc_;
  const i64 blk_words = local_.rows() * local_.cols();
  // Uninitialized: the allgather writes every rank's block, and the
  // unpack every element of the result (the constructor's divisibility
  // rule makes the P local blocks tile the matrix exactly).
  UninitVector<double> all(static_cast<std::size_t>(blk_words) * p);
  g.world().allgather(
      {local_.data(), static_cast<std::size_t>(blk_words)}, all);
  lin::Matrix full = lin::Matrix::uninit(rows_, cols_);
  for (int r = 0; r < p; ++r) {
    BlockCyclicMatrix peer;
    peer.rows_ = rows_;
    peer.cols_ = cols_;
    peer.block_ = block_;
    peer.pr_ = pr_;
    peer.pc_ = pc_;
    peer.myrow_ = r / pc_;
    peer.mycol_ = r % pc_;
    const double* data = all.data() + static_cast<std::size_t>(blk_words) * r;
    const i64 lr = rows_ / pr_;
    const i64 lc = cols_ / pc_;
    for (i64 lj = 0; lj < lc; ++lj) {
      const i64 gj = peer.global_col(lj);
      for (i64 li = 0; li < lr; ++li) {
        full(peer.global_row(li), gj) = data[li + lj * lr];
      }
    }
  }
  return full;
}

}  // namespace cacqr::baseline
