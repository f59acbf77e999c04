"""Edge cases of queue semantics over the protocol."""

import numpy as np

from repro.dsp import tones
from repro.protocol.types import (
    Command,
    CommandMode,
    DeviceClass,
    EventCode,
    EventMask,
    PCM16_8K,
    QueueState,
)

from conftest import wait_for

RATE = 8000


def build_player(client):
    loud = client.create_loud()
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    loud.select_events(EventMask.QUEUE)
    loud.map()
    return loud, player


class TestQueueEdgeCases:
    def test_empty_cobegin_is_a_noop(self, server, client):
        loud, player = build_player(client)
        marker = np.full(400, 1234, dtype=np.int16)
        sound = client.sound_from_samples(marker, PCM16_8K)
        loud.co_begin()
        loud.co_end()
        player.play(sound)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        played = server.hub.speakers[0].capture.samples()
        assert np.any(played == 1234)

    def test_zero_length_sound_completes(self, server, client):
        loud, player = build_player(client)
        empty = client.create_sound(PCM16_8K)
        player.play(empty)
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=10)
        assert done is not None
        assert done.detail == 0

    def test_zero_delay(self, server, client):
        loud, player = build_player(client)
        marker = np.full(400, 777, dtype=np.int16)
        sound = client.sound_from_samples(marker, PCM16_8K)
        loud.delay(0)
        player.play(sound)
        loud.delay_end()
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        assert np.any(server.hub.speakers[0].capture.samples() == 777)

    def test_stop_then_restart_continues_with_new_work(self, server,
                                                       client):
        loud, player = build_player(client)
        sound = client.sound_from_samples(
            tones.sine(440.0, 3.0, RATE), PCM16_8K)
        player.play(sound)
        loud.start_queue()
        assert wait_for(lambda: np.any(
            server.hub.speakers[0].capture.samples()))
        loud.stop_queue()
        loud.flush_queue()
        client.sync()
        assert loud.query_queue().state is QueueState.STOPPED
        # Fresh work on a restarted queue runs normally.
        marker = np.full(400, 3333, dtype=np.int16)
        second = client.sound_from_samples(marker, PCM16_8K)
        player.play(second)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        assert np.any(server.hub.speakers[0].capture.samples() == 3333)

    def test_pause_of_stopped_queue_is_noop(self, server, client):
        loud, _player = build_player(client)
        loud.pause_queue()
        client.sync()
        assert loud.query_queue().state is QueueState.STOPPED

    def test_double_start_is_idempotent(self, server, client):
        loud, _player = build_player(client)
        loud.start_queue()
        loud.start_queue()
        client.sync()
        started = [e for e in client.pending_events()
                   if e.code is EventCode.QUEUE_STARTED]
        assert len(started) == 1

    def test_command_serials_increase(self, server, client):
        loud, player = build_player(client)
        sound = client.sound_from_samples(
            np.full(100, 5, dtype=np.int16), PCM16_8K)
        for _ in range(3):
            player.play(sound)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        serials = [e.args["command-serial"]
                   for e in client.pending_events()
                   if e.code is EventCode.COMMAND_DONE]
        assert len(serials) == 3
        assert serials == sorted(serials)

    def test_completed_counter_accumulates(self, server, client):
        loud, player = build_player(client)
        sound = client.sound_from_samples(
            np.full(100, 5, dtype=np.int16), PCM16_8K)
        player.play(sound)
        player.play(sound)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        assert loud.query_queue().completed == 2

    def test_finished_commands_leave_the_tracked_leaves(self, server,
                                                         client):
        """Regression: the queue program kept every leaf it ever held,
        so each block's running-leaf scans grew with queue history."""
        loud, player = build_player(client)
        sound = client.sound_from_samples(
            np.full(100, 5, dtype=np.int16), PCM16_8K)
        plays = 12
        for _ in range(plays):
            player.play(sound)
        client.sync()
        program = server.resources.get(loud.loud_id).queue.program
        assert len(program._leaves) == plays
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        reply = loud.query_queue()
        assert (reply.pending, reply.running, reply.completed) == (
            0, 0, plays)
        assert program._leaves == []

    def test_immediate_command_on_unmapped_loud_ignored(self, server,
                                                        client):
        # "Any commands sent to them will be ignored until activated."
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        player.issue(Command.STOP, CommandMode.IMMEDIATE)
        client.sync()
        assert not client.conn.errors

    def test_nested_cobegin_inside_delay(self, server, client):
        # delay { cobegin { A B } } : A and B start together, late.
        loud = client.create_loud()
        player_a = loud.create_device(DeviceClass.PLAYER)
        player_b = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player_a, 0, output, 0)
        loud.wire(player_b, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        a = np.full(600, 1000, dtype=np.int16)
        b = np.full(600, 40, dtype=np.int16)
        loud.delay(100)
        loud.co_begin()
        player_a.play(client.sound_from_samples(a, PCM16_8K))
        player_b.play(client.sound_from_samples(b, PCM16_8K))
        loud.co_end()
        loud.delay_end()
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        played = server.hub.speakers[0].capture.samples()
        # Perfectly mixed for the full 600 samples.
        assert int(np.count_nonzero(played == 1040)) == 600
        assert not np.any(played == 1000)
        assert not np.any(played == 40)


class TestImmediatePauseResume:
    def test_device_pause_resume_mid_play(self, server, client):
        loud, player = build_player(client)
        ramp = np.arange(1, 12001, dtype=np.int16)
        sound = client.sound_from_samples(ramp, PCM16_8K)
        player.play(sound)
        loud.start_queue()
        assert wait_for(lambda: np.any(
            server.hub.speakers[0].capture.samples()))
        player.pause()          # immediate, device-level
        client.sync()
        marker = len(server.hub.speakers[0].capture.samples())
        start = server.hub.clock.sample_time
        server.hub.clock.wait_until(start + 4000)
        frozen = server.hub.speakers[0].capture.samples()[marker:]
        assert not np.any(frozen)       # silent while device paused
        player.resume()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=15)
        played = server.hub.speakers[0].capture.samples()
        nonzero = played[played != 0]
        # Sample-exact continuation: the full ramp, once, in order.
        assert np.array_equal(nonzero, ramp)
