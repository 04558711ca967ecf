#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/random.h"
#include "la/tiled.h"

namespace radb::la {
namespace {

TEST(TiledTest, SplitAssembleRoundTrip) {
  Rng rng(1);
  Matrix m = RandomMatrix(rng, 10, 14);
  auto tiles = SplitIntoTiles(m, 3, 5);
  EXPECT_EQ(tiles.size(), 4u * 3u);
  auto back = AssembleTiles(tiles);
  ASSERT_TRUE(back.ok());
  EXPECT_LT(back->MaxAbsDiff(m), 1e-15);
}

TEST(TiledTest, AssembleRejectsHoles) {
  Rng rng(2);
  Matrix m = RandomMatrix(rng, 4, 4);
  auto tiles = SplitIntoTiles(m, 2, 2);
  tiles.pop_back();
  EXPECT_FALSE(AssembleTiles(tiles).ok());
}

TEST(TiledTest, AssembleRejectsDuplicates) {
  Rng rng(3);
  Matrix m = RandomMatrix(rng, 4, 4);
  auto tiles = SplitIntoTiles(m, 2, 2);
  tiles.push_back(tiles[0]);
  EXPECT_FALSE(AssembleTiles(tiles).ok());
}

TEST(TiledTest, AssembleRejectsInconsistentSizes) {
  std::vector<Tile> tiles;
  tiles.push_back(Tile{0, 0, Matrix(2, 2)});
  tiles.push_back(Tile{0, 1, Matrix(3, 2)});  // wrong height
  EXPECT_FALSE(AssembleTiles(tiles).ok());
}

}  // namespace
}  // namespace radb::la
