#pragma once
// In-process simulation of the Discord-like messaging platform (§IV).
//
// The paper's integration runs on real Discord (channels, forum channels
// with posts, webhooks, bots); this module implements the same primitives as
// a deterministic in-process state machine so every arc of Fig 5 is
// executable and testable.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"

namespace pkb::bots {

/// One message in a channel or forum post.
struct Message {
  std::uint64_t id = 0;
  std::string author;
  std::string content;
  double timestamp = 0.0;
  std::vector<std::string> attachments;
  /// Free-form tags ("status" = draft/sent/discarded, "signed-by", ...).
  std::map<std::string, std::string> tags;
};

/// Channel kinds: plain text channels and forum channels made of posts.
enum class ChannelKind { Text, Forum };

/// A forum post: a titled thread of messages.
struct ForumPost {
  std::uint64_t id = 0;
  std::string title;
  std::vector<Message> messages;
};

/// A channel.
struct Channel {
  std::string name;
  ChannelKind kind = ChannelKind::Text;
  bool is_private = false;           ///< visible to developers only
  std::vector<Message> messages;     ///< Text channels
  std::vector<ForumPost> posts;      ///< Forum channels
};

/// A registered webhook: an HTTP-callback stand-in that posts into its bound
/// channel.
struct Webhook {
  std::string url;      ///< opaque token, e.g. "webhook://petsc/1"
  std::string channel;  ///< target channel name
};

/// The server: channels, members, webhooks. All mutation is explicit and
/// deterministic; time comes from the shared SimClock.
class DiscordServer {
 public:
  explicit DiscordServer(pkb::util::SimClock* clock);

  /// Create a channel; returns false if the name is taken.
  bool create_channel(std::string_view name, ChannelKind kind,
                      bool is_private = false);

  /// Look up a channel (nullptr when absent).
  [[nodiscard]] const Channel* channel(std::string_view name) const;

  /// Membership (users and bot identities).
  void join(std::string_view user, bool is_developer = false);
  [[nodiscard]] bool is_developer(std::string_view user) const;
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }

  /// Post to a text channel; returns the message id. Throws on unknown or
  /// wrong-kind channels, and on private channels for non-developers
  /// (webhook/bot authors are allowed).
  std::uint64_t post_message(std::string_view channel, std::string_view author,
                             std::string_view content,
                             std::vector<std::string> attachments = {});

  /// Create a post in a forum channel; returns the post id.
  std::uint64_t create_post(std::string_view channel, std::string_view title);

  /// Append a message to a forum post; returns the message id.
  std::uint64_t add_to_post(std::string_view channel, std::uint64_t post_id,
                            std::string_view author, std::string_view content,
                            std::vector<std::string> attachments = {});

  /// Find a forum post by title (nullptr when absent).
  [[nodiscard]] const ForumPost* find_post(std::string_view channel,
                                           std::string_view title) const;
  [[nodiscard]] const ForumPost* post(std::string_view channel,
                                      std::uint64_t post_id) const;

  /// Mutable access for bots that edit their own messages (tags, deletion).
  Message* find_message(std::string_view channel, std::uint64_t message_id);
  /// Delete a message from a forum post or text channel; false when absent.
  bool delete_message(std::string_view channel, std::uint64_t message_id);

  /// Webhooks.
  [[nodiscard]] std::string create_webhook(std::string_view channel);
  /// Post through a webhook url; returns the message id, or nullopt for an
  /// unknown webhook.
  std::optional<std::uint64_t> post_via_webhook(std::string_view url,
                                                std::string_view content);

  [[nodiscard]] const pkb::util::SimClock& clock() const { return *clock_; }

 private:
  Channel* channel_mut(std::string_view name);

  pkb::util::SimClock* clock_;
  std::vector<Channel> channels_;
  std::map<std::string, bool> members_;  ///< name -> is_developer
  std::vector<Webhook> webhooks_;
  std::uint64_t next_id_ = 1;
};

}  // namespace pkb::bots
