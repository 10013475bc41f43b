// CancelToken: the sticky first reason, and parent links -- a child reads
// as cancelled once its parent is, reports its own reason when it has one
// and the parent's otherwise, and never cancels its parent.
#include "common/cancel.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace {

using hpas::CancelReason;
using hpas::CancelToken;

TEST(CancelToken, FirstReasonSticks) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.cancel(CancelReason::kTimeout);
  token.cancel(CancelReason::kShutdown);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kTimeout);
}

TEST(CancelToken, CancelledParentIsVisibleThroughTheChild) {
  CancelToken root;
  CancelToken parent(&root);
  CancelToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  EXPECT_EQ(child.reason(), CancelReason::kNone);

  root.cancel(CancelReason::kShutdown);
  EXPECT_TRUE(parent.cancelled());
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.reason(), CancelReason::kShutdown);
}

TEST(CancelToken, ChildReasonWinsOnceSet) {
  CancelToken parent;
  CancelToken child(&parent);
  parent.cancel(CancelReason::kDeadline);
  EXPECT_EQ(child.reason(), CancelReason::kDeadline);
  child.cancel(CancelReason::kTimeout);
  EXPECT_EQ(child.reason(), CancelReason::kTimeout);
  EXPECT_EQ(parent.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, CancellingTheChildLeavesTheParentUntouched) {
  CancelToken parent;
  CancelToken child(&parent);
  CancelToken sibling(&parent);
  child.cancel(CancelReason::kTimeout);
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
  EXPECT_EQ(parent.reason(), CancelReason::kNone);
  EXPECT_FALSE(sibling.cancelled());
}

TEST(CancelToken, ParentCancelFromAnotherThreadReachesAPollingChild) {
  CancelToken parent;
  CancelToken child(&parent);
  std::thread canceller([&parent] { parent.cancel(CancelReason::kShutdown); });
  while (!child.cancelled()) std::this_thread::yield();
  canceller.join();
  EXPECT_EQ(child.reason(), CancelReason::kShutdown);
}

}  // namespace
