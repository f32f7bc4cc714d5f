// Unit tests for the discovery substrate: GLUE records and datagrams,
// station servers (publish/expire/subscribe/query), publishers, and the
// aggregating discovery server of Fig. 3.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/glue.hpp"
#include "discovery/publisher.hpp"
#include "discovery/station.hpp"
#include "rpc/jsonrpc.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace clarens::discovery {
namespace {

ServiceRecord make_record(const std::string& node, const std::string& service) {
  ServiceRecord record;
  record.farm = "caltech-tier2";
  record.node = node;
  record.service = service;
  record.url = "http://" + node + ":8080/clarens";
  record.protocol = "xmlrpc";
  record.version = "1.0";
  record.heartbeat = util::unix_now();
  record.metrics["load"] = 0.25;
  record.metrics["capacity"] = 100;
  return record;
}

/// Poll until `predicate` holds or ~2 s elapse.
template <typename F>
bool eventually(F predicate) {
  for (int i = 0; i < 100; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate();
}

TEST(Glue, RecordRoundTripsThroughValue) {
  ServiceRecord record = make_record("clarens01", "file");
  ServiceRecord back = ServiceRecord::from_value(record.to_value());
  EXPECT_EQ(back, record);
  EXPECT_EQ(record.key(), "caltech-tier2/clarens01/file");
}

TEST(Glue, DatagramRoundTrips) {
  Datagram datagram;
  datagram.type = Datagram::Type::Publish;
  datagram.records = {make_record("a", "file"), make_record("b", "shell")};
  datagram.reply_host = "127.0.0.1";
  datagram.reply_port = 4242;
  datagram.query = "fil";
  Datagram back = Datagram::decode(datagram.encode());
  EXPECT_EQ(back.type, Datagram::Type::Publish);
  EXPECT_EQ(back.records, datagram.records);
  EXPECT_EQ(back.reply_port, 4242);
  EXPECT_EQ(back.query, "fil");
  EXPECT_THROW(Datagram::decode("{\"type\":\"nonsense\",\"records\":[],"
                                "\"reply_host\":\"\",\"reply_port\":0,"
                                "\"query\":\"\"}"),
               ParseError);
}

TEST(Station, AcceptsPublishesAndServesRecords) {
  StationServer station;
  Publisher publisher("127.0.0.1", station.port());
  publisher.set_records({make_record("n1", "file"), make_record("n1", "shell")});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return station.records().size() == 2; }));
  EXPECT_EQ(station.publish_count(), 1u);
}

TEST(Station, RepublishUpdatesNotDuplicates) {
  StationServer station;
  Publisher publisher("127.0.0.1", station.port());
  publisher.set_records({make_record("n1", "file")});
  publisher.publish_once();
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return station.publish_count() == 2; }));
  EXPECT_EQ(station.records().size(), 1u);  // same key upserted
}

TEST(Station, ExpiresStaleRecords) {
  StationServer station(0, /*record_ttl=*/1);
  Publisher publisher("127.0.0.1", station.port());
  ServiceRecord stale = make_record("old", "file");
  publisher.set_records({stale});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return station.records().size() == 1; }));
  // After the TTL passes the record is no longer reported.
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  EXPECT_TRUE(station.records().empty());
}

TEST(Station, MalformedDatagramIgnored) {
  StationServer station;
  net::UdpSocket sender = net::UdpSocket::bind(0);
  sender.send_to("127.0.0.1", station.port(), std::string_view("not json"));
  Publisher publisher("127.0.0.1", station.port());
  publisher.set_records({make_record("n", "s")});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return station.records().size() == 1; }));
}

TEST(Discovery, SubscribeBootstrapsAndStreams) {
  StationServer station;
  Publisher publisher("127.0.0.1", station.port());
  publisher.set_records({make_record("n1", "file")});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return station.records().size() == 1; }));

  db::Store store;
  DiscoveryServer discovery(store);
  discovery.subscribe("127.0.0.1", station.port());
  // Bootstrap delivers the existing record.
  ASSERT_TRUE(eventually([&] { return discovery.record_count() == 1; }));

  // Later publishes stream through the station to the discovery server.
  publisher.set_records({make_record("n1", "file"), make_record("n2", "vo")});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return discovery.record_count() == 2; }));

  auto all = discovery.find_services("");
  EXPECT_EQ(all.size(), 2u);
  auto files = discovery.find_services("file");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].node, "n1");
}

TEST(Discovery, LocateBindsServiceToUrl) {
  StationServer station;
  db::Store store;
  DiscoveryServer discovery(store);
  discovery.subscribe("127.0.0.1", station.port());
  Publisher publisher("127.0.0.1", station.port());
  publisher.set_records({make_record("clarens01", "file")});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return discovery.record_count() == 1; }));
  EXPECT_EQ(discovery.locate("file"), "http://clarens01:8080/clarens");
  EXPECT_FALSE(discovery.locate("nothing").has_value());
  auto servers = discovery.find_servers();
  ASSERT_EQ(servers.size(), 1u);
}

TEST(Discovery, StaleRecordsFilteredFromQueries) {
  StationServer station;
  db::Store store;
  DiscoveryServer discovery(store, /*record_ttl=*/1);
  discovery.subscribe("127.0.0.1", station.port());
  Publisher publisher("127.0.0.1", station.port());
  publisher.set_records({make_record("n1", "file")});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return discovery.record_count() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  EXPECT_TRUE(discovery.find_services("").empty());  // live filter
}

TEST(Glue, RoleAndPrefixesRoundTripAndDefault) {
  ServiceRecord record = make_record("clarens01", "file");
  record.role = "storage";
  record.prefixes = {"/data", "/sandbox"};
  ServiceRecord back = ServiceRecord::from_value(record.to_value());
  EXPECT_EQ(back, record);
  EXPECT_EQ(back.role, "storage");
  ASSERT_EQ(back.prefixes.size(), 2u);

  // Records published by pre-federation servers carry neither field;
  // from_value must tolerate their absence rather than throw.
  rpc::Value legacy = make_record("old", "file").to_value();
  ServiceRecord tolerated = ServiceRecord::from_value(legacy);
  EXPECT_TRUE(tolerated.prefixes.empty());
}

// Regression (ISSUE 8 satellite): records used to be filtered out of
// query answers once stale, but the cache + persisted table kept them
// forever — record_count() counted dead servers and the table grew
// without bound. The receive loop now lazily reaps expired entries.
TEST(Discovery, ExpiredRecordsAreReapedNotJustFiltered) {
  StationServer station;
  db::Store store;
  DiscoveryServer discovery(store, /*record_ttl=*/1);
  discovery.subscribe("127.0.0.1", station.port());
  Publisher publisher("127.0.0.1", station.port());
  publisher.set_records({make_record("n1", "file")});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return discovery.record_count() == 1; }));
  // No further heartbeats: the record expires and the background reap
  // removes it from the cache entirely, not only from query answers.
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  EXPECT_TRUE(eventually([&] { return discovery.record_count() == 0; }));
}

TEST(Discovery, ReapStaleReportsCountAndErasesPersistedRows) {
  StationServer station;
  db::Store store;
  DiscoveryServer discovery(store, /*record_ttl=*/1);
  discovery.subscribe("127.0.0.1", station.port());
  Publisher publisher("127.0.0.1", station.port());
  publisher.set_records({make_record("n1", "file"), make_record("n2", "vo")});
  publisher.publish_once();
  ASSERT_TRUE(eventually([&] { return discovery.record_count() == 2; }));
  EXPECT_EQ(store.keys("discovery_records").size(), 2u);
  discovery.stop();  // park the background reaper for a deterministic count
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  EXPECT_EQ(discovery.reap_stale(), 2u);
  EXPECT_EQ(discovery.record_count(), 0u);
  EXPECT_TRUE(store.keys("discovery_records").empty());
  EXPECT_EQ(discovery.reap_stale(), 0u);  // idempotent once drained
}

TEST(Discovery, StalePersistedRowsDroppedAtStartup) {
  db::Store store;
  ServiceRecord stale = make_record("dead", "file");
  stale.heartbeat = util::unix_now() - 100;
  ServiceRecord fresh = make_record("live", "file");
  store.put("discovery_records", stale.key(),
            rpc::jsonrpc::serialize_value(stale.to_value()));
  store.put("discovery_records", fresh.key(),
            rpc::jsonrpc::serialize_value(fresh.to_value()));

  DiscoveryServer discovery(store, /*record_ttl=*/5);
  // The restart warm-up resurrects only the live row; the stale one is
  // reaped from the table instead of haunting record_count().
  EXPECT_EQ(discovery.record_count(), 1u);
  ASSERT_EQ(store.keys("discovery_records").size(), 1u);
  EXPECT_EQ(discovery.find_services("file").at(0).node, "live");
}

TEST(Discovery, QueryStationsSlowPathMatchesFastPath) {
  StationServer station_a, station_b;
  db::Store store;
  DiscoveryServer discovery(store);
  discovery.subscribe("127.0.0.1", station_a.port());
  discovery.subscribe("127.0.0.1", station_b.port());

  Publisher pub_a("127.0.0.1", station_a.port());
  pub_a.set_records({make_record("nodeA", "file")});
  pub_a.publish_once();
  Publisher pub_b("127.0.0.1", station_b.port());
  pub_b.set_records({make_record("nodeB", "file")});
  pub_b.publish_once();
  ASSERT_TRUE(eventually([&] { return discovery.record_count() == 2; }));

  auto fast = discovery.find_services("file");
  auto slow = discovery.query_stations("file");
  EXPECT_EQ(fast.size(), 2u);
  EXPECT_EQ(slow.size(), 2u);
}

TEST(Discovery, PeriodicPublisherRefreshesHeartbeat) {
  StationServer station;
  Publisher publisher("127.0.0.1", station.port());
  int builds = 0;
  publisher.start_periodic(50, [&builds] {
    ++builds;
    return std::vector<ServiceRecord>{make_record("n", "file")};
  });
  ASSERT_TRUE(eventually([&] { return station.publish_count() >= 3; }));
  publisher.stop();
  EXPECT_GE(builds, 3);  // the record set is rebuilt for every publish
  auto count = station.publish_count();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LE(station.publish_count(), count + 1);  // stopped publishing
}

}  // namespace
}  // namespace clarens::discovery
