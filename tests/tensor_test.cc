#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

namespace poe {
namespace {

TEST(TensorTest, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.data(), nullptr);
}

TEST(TensorTest, ShapeAndNumel) {
  Tensor t({2, 3, 4});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(2), 4);
  EXPECT_EQ(t.dim(-1), 4);  // negative indexing
  EXPECT_EQ(t.nbytes(), 24 * 4);
}

TEST(TensorTest, ZerosOnesFull) {
  Tensor z = Tensor::Zeros({3, 3});
  Tensor o = Tensor::Ones({3, 3});
  Tensor f = Tensor::Full({3, 3}, 2.5f);
  for (int64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(z.at(i), 0.0f);
    EXPECT_EQ(o.at(i), 1.0f);
    EXPECT_EQ(f.at(i), 2.5f);
  }
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(t.at(3), 4.0f);
}

TEST(TensorTest, RandnIsDeterministicGivenSeed) {
  Rng a(42), b(42);
  Tensor ta = Tensor::Randn({100}, a);
  Tensor tb = Tensor::Randn({100}, b);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(ta.at(i), tb.at(i));
}

TEST(TensorTest, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::Zeros({4});
  Tensor shallow = a;
  Tensor deep = a.Clone();
  a.at(0) = 7.0f;
  EXPECT_EQ(shallow.at(0), 7.0f);
  EXPECT_EQ(deep.at(0), 0.0f);
  EXPECT_TRUE(a.SharesStorageWith(shallow));
  EXPECT_FALSE(a.SharesStorageWith(deep));
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::Zeros({2, 6});
  Tensor b = a.Reshape({3, 4});
  EXPECT_TRUE(a.SharesStorageWith(b));
  b.at(11) = 5.0f;
  EXPECT_EQ(a.at(11), 5.0f);
  EXPECT_EQ(b.ndim(), 2);
  EXPECT_EQ(b.dim(0), 3);
}

TEST(TensorTest, FillAndCopyDataFrom) {
  Tensor a = Tensor::Zeros({5});
  a.Fill(3.0f);
  EXPECT_EQ(a.at(4), 3.0f);
  Tensor b = Tensor::Zeros({5});
  b.CopyDataFrom(a);
  EXPECT_EQ(b.at(2), 3.0f);
}

TEST(TensorTest, ShapeString) {
  Tensor t({2, 3});
  EXPECT_EQ(t.ShapeString(), "Tensor[2, 3]");
}

TEST(TensorTest, ShapeNumelHelper) {
  EXPECT_EQ(ShapeNumel({}), 1);
  EXPECT_EQ(ShapeNumel({5}), 5);
  EXPECT_EQ(ShapeNumel({2, 0, 3}), 0);
}

TEST(TensorTest, SameShapeHelper) {
  EXPECT_TRUE(SameShape(Tensor({2, 3}), Tensor({2, 3})));
  EXPECT_FALSE(SameShape(Tensor({2, 3}), Tensor({3, 2})));
}

TEST(TensorTest, UninitializedHasShapeAndConstructorStillZeroFills) {
  Tensor u = Tensor::Uninitialized({2, 3, 4});
  EXPECT_EQ(u.numel(), 24);
  EXPECT_EQ(u.shape(), (std::vector<int64_t>{2, 3, 4}));
#ifndef NDEBUG
  // Debug builds poison unfilled storage so bitwise oracles see gaps.
  for (int64_t i = 0; i < u.numel(); ++i) EXPECT_TRUE(std::isnan(u.at(i)));
#endif
  const Tensor z({2, 3, 4});
  for (int64_t i = 0; i < z.numel(); ++i) EXPECT_EQ(z.at(i), 0.0f);
}

}  // namespace
}  // namespace poe
